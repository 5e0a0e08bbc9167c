// Package atm is the root of a from-scratch Go reproduction of "ATM:
// Approximate Task Memoization in the Runtime System" (Brumar, Casas,
// Moretó, Valero, Sohi — IPDPS 2017).
//
// The library lives in the internal packages:
//
//   - internal/taskrt — an OmpSs-style task-dataflow runtime (task types,
//     in/out/inout region annotations, dependence graph, scheduling
//     policies) built on a work-stealing scheduler: per-worker deques
//     whose owner pops the end the ready-queue policy picks (FIFO by
//     default, LIFO on request) while thieves steal the oldest task, a
//     sharded injector for
//     master-thread submissions, direct handoff of single successors,
//     lock-free dependence wiring, a batched submission pipeline
//     (SubmitBatch/Batcher: intra-batch edges wired without atomics,
//     block publication, one coalesced wake per batch), LLC-aware
//     random-start victim selection, and Nanos++-style submission
//     throttling with an adaptive, LLC-sized watermark. Dependence
//     state lives in generation-checked slots embedded in the regions
//     themselves (region.DepSlot, which every Region carries: one
//     pointer load instead of a map probe), and tasks
//     are carved from slabs that recycle through a bounded free list at
//     completion fences (Wait/Fence) instead of returning to the GC.
//     A deterministic replay mode (Config.Deterministic) re-runs any
//     schedule bit-identically from one seed — every scheduling
//     decision, yield point and fence timing drawn from a seeded PRNG —
//     which internal/schedfuzz exploits to fuzz schedules and injected
//     faults (internal/failpoint) against dependence-order, exactly-
//     once, memoization and persistence invariants, replaying any
//     failure from its printed seed (atmbench -det/-sched/-schedseed;
//     docs/determinism.md).
//   - internal/core — the ATM engine: Task History Table (ring-buffer
//     buckets, refcounted entries recycled through a pool), In-flight Key
//     Table, Jenkins hashing over sampled inputs, and the static /
//     dynamic / fixed-p operating modes. The steady-state hit path is
//     allocation- and lock-free (per-worker hashers and stat shards,
//     atomic type/plan lookups, sampled overhead timing). For
//     long-lived service use the THT can run bounded: a byte budget
//     (Config.THTBudgetBytes) enforced by one policy — oldest entry
//     under a rotating hand, TinyLFU admission duel against it; the hit
//     path stays 0-alloc with a budget and evictions feed the delta
//     chains as tombstones so compaction shrinks files. The table
//     knows no tenants: internal/service namespaces them by a type-name
//     prefix, which the key hash already keeps apart (docs/service.md).
//   - internal/persist — the versioned binary codec for memoization
//     snapshots: core.(*ATM).Snapshot() extracts the serializable state
//     (THT entries, per-type adaptive levels, a config fingerprint),
//     persist SaveChain/LoadChain move it to disk with strict,
//     typed-error decoding (magic, format version, per-entry CRCs), and
//     core.Restore warm-starts a fresh engine from it — repeated
//     experiment sweeps pay the training phase once instead of per
//     process (docs/persistence.md). Warm state crosses processes in
//     one way, the chain file (format v2, the only one read): a run
//     or a server (-chain) warm-starts from it and appends a delta
//     record per save, core.(*ATM).SnapshotDelta() extracting only the
//     state changed since the previous one; persist
//     AppendDelta/Compact/MergeSnapshots fold and combine chains, and
//     cmd/snapshotctl operates on the files (inspect, verify, compact,
//     merge — the sharded-sweep merge workflow; atmbench -chain and
//     the `sweep` experiment drive it end to end). Writes are
//     crash-consistent (tmp+rename for whole files, CRC-framed records
//     with torn-tail salvage for chains, fsync policies selectable via
//     -nosync), recovery is policy-driven (-recover strict|salvage|
//     cold), snapshotctl verify reports damage via its exit code
//     (0 clean, 2 torn-salvageable, 3 unrecoverable, 1 I/O error), and
//     the whole surface is fuzzed with simulated crashes
//     (internal/crashfuzz, internal/failpoint).
//   - internal/service — memoization as a service: a request whose
//     every task is memoizable and of a steady type is answered on its
//     handler goroutine (core.Serve: quiet probe, admission for the
//     misses, then hits copied and misses run and inserted, recording
//     what a worker would have); the rest — training types, types with
//     an exclusion set, non-memoizable kinds — run on their handler too,
//     as one SubmitBatch under the task runtime's lock, admitted
//     against the runtime's backlog watermark first (shed with 429
//     upstream, never queue unboundedly). Around it an HTTP
//     front-end (JSON and a compact binary task encoding) and the
//     six-kind workload catalog. cmd/atmd serves it; the repository
//     benchmark (benchmark/) drives it (docs/service.md).
//     internal/decfloat is that route's float text codec: strconv's
//     and encoding/json's results from a one-pass Eisel-Lemire parser
//     and a Schubfach formatter.
//   - internal/region, internal/sampling, internal/hashx,
//     internal/trace — the supporting substrates; internal/metrics —
//     dependency-free fixed-ladder latency histograms and a Prometheus
//     text-format exporter backing atmd's /metrics.
//   - internal/apps/... — the evaluated benchmarks of Table I.
//   - internal/harness and cmd/atmbench — the evaluation matrix
//     (ATMSpec × RunOptions → Outcome), regenerating the paper's
//     tables and figures; harness.Serve applies the same matrix and
//     persistence options to a long-lived service engine for atmd.
//
// This root package carries the repository-level benchmark suite
// (bench_test.go, ablation_bench_test.go): one testing.B target per paper
// table/figure plus ablations of the design decisions. See README.md for
// a tour and repo map, docs/architecture.md for the layer walk,
// docs/README.md for the documentation index, and PERFORMANCE.md for
// the runtime's bottleneck inventory and before/after numbers
// (BENCH_*.json, gated in CI by cmd/benchgate — docs/ci.md).
package atm
