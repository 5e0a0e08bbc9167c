//go:build race

package service

// raceEnabled mirrors the runtime's race.Enabled for tests whose
// assertions depend on sync.Pool round-trips: in race mode the runtime
// intentionally drops Pool.Put calls at random, so allocation counts on
// a pooled path are not assertable.
const raceEnabled = true
