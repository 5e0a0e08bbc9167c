package harness

import (
	"atm/internal/persist"
	"atm/internal/service"
)

// Serve-mode: the harness's evaluation matrix (ATMSpec) and persistence
// options (RunOptions) applied to a long-lived service engine instead
// of a one-shot benchmark run. cmd/atmd uses this to get exactly the
// warm-start / delta-chain / recovery-policy behavior atmbench has,
// behind an HTTP front-end.

// ServeInfo describes how a served engine came up: the same
// warm-start and recovery fields RunOne reports in its Outcome.
type ServeInfo struct {
	// WarmStart reports the engine restored state from its chain before
	// serving; RestoredEntries counts the THT entries it installed.
	WarmStart       bool
	RestoredEntries int64
	// Salvaged / ColdFallback / Recovery mirror Outcome's recovery
	// reporting (docs/persistence.md).
	Salvaged     bool
	ColdFallback bool
	Recovery     persist.RecoveryReport
	// SnapshotErr is a load failure surfaced under RecoverStrict; the
	// engine still serves, cold.
	SnapshotErr error
}

// Serve opens the memoization state for spec under opt's persistence
// options and starts a service engine over it, which serves every
// request on its handler goroutine through core.Serve. cfg supplies the
// service-side knobs (backlog watermark, tenant cap);
// cfg.Memo, cfg.Save and cfg.SaveEvery are overwritten from spec and
// opt. With a chain (opt.SnapshotChain) the engine warm-starts from it
// under opt.Recover, and the Save hook saves the churn since the last
// save — a delta record appended, or the chain rewritten as one base
// record once its deltas would outgrow the base (RunOptions.
// SnapshotChain) — and POST /v1/snapshot, the periodic
// opt.SnapshotDeltaEvery saver and the final save on Close all go
// through it. Without one there is no persistence, and POST
// /v1/snapshot answers 409.
//
// The caller owns the returned engine and must Close it (which runs the
// final save).
func Serve(spec ATMSpec, opt RunOptions, cfg service.Config) (*service.Engine, ServeInfo) {
	st := openMemo(spec, opt)
	info := ServeInfo{
		WarmStart:    st.warm,
		Salvaged:     st.salvaged,
		ColdFallback: st.coldFB,
		Recovery:     st.recovery,
		SnapshotErr:  st.err,
	}
	if spec.Enabled {
		cfg.Memo = st.memo
	} else {
		cfg.Memo = nil
	}
	cfg.Save = nil
	cfg.SaveEvery = 0
	if cfg.Memo != nil && st.chain != "" {
		cfg.Save = st.save
		cfg.SaveEvery = opt.SnapshotDeltaEvery
	}
	eng := service.New(cfg)
	// Restored sections install as the engine registers its task types,
	// so the count is only meaningful after construction.
	if cfg.Memo != nil {
		info.RestoredEntries = cfg.Memo.RestoredEntries()
	}
	return eng, info
}
