package main

import (
	"encoding/json"
	"runtime"
	"time"

	"atm/internal/hashx"
	"atm/internal/service"
)

// A calibrator measures how fast the machine is while a phase runs.
//
// The boxes this benchmark runs on are small shared virtual machines
// whose speed drifts by tens of percent over minutes: the same atmd
// binary was measured at 9 500 and at 13 400 tasks/s a few minutes
// apart, with its CPU time per task moving the same way. No run length
// averages that out. So a thread in the benchmark's own process runs a
// fixed unit of work — decode one JSON task, run its kernel, hash the
// output, about 100 µs — every few milliseconds for as long as the
// phase lasts, and the CPU-bound metrics of the phase are scaled by the
// median unit time over nominalUnit. The unit is benchmark code using
// the standard library and fixed leaf functions only, so no change to
// the system under test moves it. README.md has the measurements.
type calibrator struct {
	stop  chan struct{}
	done  chan struct{}
	units []time.Duration
}

const (
	nominalUnit   = 100 * time.Microsecond
	calibInterval = 4 * time.Millisecond
)

var calibSink uint64 // keeps the unit's result live

func startCalibrator() *calibrator {
	c := &calibrator{stop: make(chan struct{}), done: make(chan struct{})}
	k, _ := service.KindByName("stencil") // 256 floats in and out: codec, kernel and hash all take part
	body, err := json.Marshal(jsonTask{k.Name, service.Input(k, 1, 1)})
	if err != nil {
		panic(err) // inputs are finite by construction
	}
	out := make([]float64, k.Out)
	h := hashx.New(hashx.Lookup3, 1)
	go func() {
		defer close(c.done)
		// Own thread: a unit is not descheduled by the Go scheduler in
		// favour of a client goroutine half way through.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for {
			select {
			case <-c.stop:
				return
			default:
			}
			t0 := time.Now()
			var t jsonTask
			if json.Unmarshal(body, &t) != nil {
				return // cannot happen: body is Marshal's own output
			}
			k.Fn(t.Input, out)
			h.Reset()
			h.WriteFloat64s(out)
			calibSink += h.Sum64()
			c.units = append(c.units, time.Since(t0))
			time.Sleep(calibInterval)
		}
	}()
	return c
}

// finish stops sampling and returns the machine's slowness over the
// phase: median unit time ÷ nominalUnit, 1 when nothing was sampled.
// The median ignores the units the kernel preempted.
func (c *calibrator) finish() (slowness float64, unit time.Duration) {
	close(c.stop)
	<-c.done
	if len(c.units) == 0 {
		return 1, nominalUnit
	}
	unit = quantile(c.units, 0.5)
	return float64(unit) / float64(nominalUnit), unit
}
