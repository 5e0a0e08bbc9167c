package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"

	"atm/internal/service"
)

// A stream is the seeded request generator every serve workload draws
// from. Request i is a pure function of (seed, i), so any client may
// build any request, the traced replay sees the bodies the real run
// sent, and the same seed always produces the same bytes.
//
// Two key distributions exist: uniform over a small hot set (every key
// is resident after the fill, so the table is only read), and
// zipf-skewed over a key space far larger than the table's budget with
// a share of never-repeating scan requests (so the table is written,
// evicted and persisted while it is read).
type stream struct {
	seed  uint64
	kinds []service.Kind // the DefaultMix kinds, by name
	cum   []float64      // cumulative mix weight per kind
	batch int            // tasks per request
	keys  uint64         // key-space cardinality per kind

	zipfCum   []float64 // cumulative zipf mass over keys; nil = uniform
	scanShare float64   // share of requests that are sequential scans

	binary bool
	frags  [][]byte // pre-encoded task per (kind, key); nil = encode on demand
}

// taskRef names one task of the stream: kinds[kind] expanded from key.
type taskRef struct {
	kind int
	key  uint64
}

const (
	tasksPerRequest = 4
	zipfKeys        = 65536
	zipfS           = 0.99
	zipfScanShare   = 0.10
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func unit(s uint64) float64 { return float64(s>>11) / (1 << 53) }

// newStream builds the generator: zipf over zipfKeys keys per kind with
// scans, or uniform over hotKeys keys per kind.
func newStream(seed uint64, binaryBody, zipf bool, hotKeys uint64) *stream {
	mix := service.DefaultMix()
	names := make([]string, 0, len(mix))
	for name := range mix {
		names = append(names, name)
	}
	sort.Strings(names)
	s := &stream{seed: seed, batch: tasksPerRequest, keys: hotKeys, binary: binaryBody}
	var total float64
	for _, name := range names {
		k, ok := service.KindByName(name)
		if !ok {
			panic("benchmark: DefaultMix names unknown kind " + name)
		}
		total += mix[name]
		s.kinds = append(s.kinds, k)
		s.cum = append(s.cum, total)
	}
	for i := range s.cum {
		s.cum[i] /= total
	}
	if zipf {
		s.keys = zipfKeys
		s.scanShare = zipfScanShare
		s.zipfCum = make([]float64, zipfKeys)
		var mass float64
		for r := range s.zipfCum {
			mass += math.Pow(float64(r+1), -zipfS)
			s.zipfCum[r] = mass
		}
		for r := range s.zipfCum {
			s.zipfCum[r] /= mass
		}
		return s
	}
	// The hot set is small enough to encode once, which keeps the load
	// generator's own CPU out of the server's way on a two-core box.
	s.frags = make([][]byte, len(s.kinds)*int(s.keys))
	for ki := range s.kinds {
		for key := uint64(0); key < s.keys; key++ {
			s.frags[ki*int(s.keys)+int(key)] = s.encodeTask(taskRef{ki, key})
		}
	}
	return s
}

// request returns the tasks of request i, appended to dst[:0].
func (s *stream) request(i uint64, dst []taskRef) []taskRef {
	dst = dst[:0]
	r := splitmix64(s.seed ^ i*0x9e3779b97f4a7c15)
	r = splitmix64(r)
	scan := unit(r) < s.scanShare
	for j := 0; j < s.batch; j++ {
		r = splitmix64(r)
		u := unit(r)
		kind := len(s.cum) - 1
		for ki, c := range s.cum {
			if u < c {
				kind = ki
				break
			}
		}
		r = splitmix64(r)
		var key uint64
		switch {
		case scan:
			// Past the zipf key space and unique per (request, slot).
			key = s.keys + i*uint64(s.batch) + uint64(j)
		case s.zipfCum != nil:
			key = uint64(min(sort.SearchFloat64s(s.zipfCum, unit(r)), len(s.zipfCum)-1))
		default:
			key = r % s.keys
		}
		dst = append(dst, taskRef{kind, key})
	}
	return dst
}

func (s *stream) input(t taskRef) []float64 {
	return service.Input(s.kinds[t.kind], t.key, s.seed)
}

// task expands a reference into the engine's task form.
func (s *stream) task(t taskRef) service.Task {
	return service.Task{Kind: s.kinds[t.kind].Name, Input: s.input(t)}
}

// expected computes the task's output locally, the reference every
// served reply is audited against.
func (s *stream) expected(t taskRef) []float64 {
	k := s.kinds[t.kind]
	out := make([]float64, k.Out)
	k.Fn(s.input(t), out)
	return out
}

type jsonTask struct {
	Kind  string    `json:"kind"`
	Input []float64 `json:"input"`
}

// encodeTask renders one task in the stream's body encoding, without
// the request framing.
func (s *stream) encodeTask(t taskRef) []byte {
	task := s.task(t)
	if s.binary {
		b, err := service.EncodeBinaryTasks([]service.Task{task})
		if err != nil {
			panic(err) // kind names are the catalog's own
		}
		return b[4:] // drop the one-task count
	}
	b, err := json.Marshal(jsonTask{task.Kind, task.Input})
	if err != nil {
		panic(err) // inputs are finite by construction
	}
	return b
}

func (s *stream) fragment(t taskRef) []byte {
	if s.frags != nil && t.key < s.keys {
		return s.frags[t.kind*int(s.keys)+int(t.key)]
	}
	return s.encodeTask(t)
}

func (s *stream) contentType() string {
	if s.binary {
		return "application/x-atm-tasks"
	}
	return "application/json"
}

// body frames the tasks as one /v1/submit body, appended to dst[:0].
func (s *stream) body(tasks []taskRef, dst []byte) []byte {
	dst = dst[:0]
	if s.binary {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tasks)))
		for _, t := range tasks {
			dst = append(dst, s.fragment(t)...)
		}
		return dst
	}
	dst = append(dst, `{"tasks":[`...)
	for i, t := range tasks {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, s.fragment(t)...)
	}
	return append(dst, "]}"...)
}

// hotSet lists every distinct task of a uniform stream, grouped into
// requests: the fill that makes the table warm.
func (s *stream) hotSet() [][]taskRef {
	var reqs [][]taskRef
	var cur []taskRef
	for ki := range s.kinds {
		for key := uint64(0); key < s.keys; key++ {
			cur = append(cur, taskRef{ki, key})
			if len(cur) == s.batch {
				reqs = append(reqs, cur)
				cur = nil
			}
		}
	}
	if len(cur) > 0 {
		reqs = append(reqs, cur)
	}
	return reqs
}
