package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/packet"
)

// Config sizes the engine. The zero value of DisableOptionTranslation
// matches core.Config: option translation on.
type Config struct {
	// Workers is the run-to-completion loop count (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// Shards is the rewrite-table shard count, rounded up to a power of
	// two (default 64).
	Shards int
	// RingSize is the per-worker SPSC ring capacity, rounded up to a
	// power of two (default 1024).
	RingSize int
	// Batch is how many frames a worker pulls per ring pop (default 32).
	Batch int
	// DisableOptionTranslation switches off the §4.2 TCP option
	// rewriting, exactly like core.Config.DisableOptionTranslation.
	DisableOptionTranslation bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = 64
	}
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
}

// Verdict is the per-frame outcome of the rewrite path.
type Verdict uint8

const (
	// Pass: no entry matched; the frame is unchanged.
	Pass Verdict = iota
	// Rewritten: an entry matched and its RawRule was applied in place.
	Rewritten
	// Rejected: the frame failed ParseView validation (truncated,
	// malformed options, bad lengths) and was left byte-for-byte
	// untouched.
	Rejected
)

// worker is one run-to-completion loop: pop a batch of frames from the
// own ring, rewrite each to completion, repeat. Counters are plain
// worker-local fields — they are read only after Stop's WaitGroup
// barrier.
type worker struct {
	eng   *Engine
	ring  *Ring
	batch [][]byte

	processed uint64
	rewritten uint64
	rejected  uint64
}

// Engine is the concurrent rewrite engine: a shared sharded Table and a
// pool of workers behind per-worker SPSC rings. Flows are pinned to
// workers by hash (the RSS model), so per-flow frame order is preserved
// end to end.
type Engine struct {
	cfg     Config
	table   *Table
	workers []*worker

	stop    atomic.Bool
	running bool
	wg      sync.WaitGroup
}

// New builds an engine (not yet started) with its own table.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, table: NewTable(cfg.Shards)}
	e.workers = make([]*worker, cfg.Workers)
	for i := range e.workers {
		e.workers[i] = &worker{
			eng:   e,
			ring:  NewRing(cfg.RingSize),
			batch: make([][]byte, cfg.Batch),
		}
	}
	return e
}

// Table exposes the rewrite table; Install/Remove/SweepIdle on it are
// the engine's control operations, safe concurrently with processing.
func (e *Engine) Table() *Table { return e.table }

// WorkerFor returns the worker index a flow is pinned to. The hash is
// rotated before bucketing so the worker choice stays independent of
// the shard choice (both fold the same 64-bit hash; unrotated they
// would share their top bits).
func (e *Engine) WorkerFor(ft packet.FiveTuple) int {
	h := ft.Hash()
	return packet.Bucket(h<<32|h>>32, len(e.workers))
}

// Start launches the worker loops.
func (e *Engine) Start() {
	if e.running {
		return
	}
	e.running = true
	e.stop.Store(false)
	for _, w := range e.workers {
		e.wg.Add(1)
		go w.run()
	}
}

// FeedRaw routes a serialized frame onto its flow's worker ring,
// returning false when that ring is full. The worker rewrites the frame
// bytes in place; the caller must not touch them until after Stop.
// Frames ParseView rejects have no tuple and go to worker 0, which
// re-validates and counts them Rejected. Single-producer contract: all
// FeedRaw calls must come from one goroutine.
func (e *Engine) FeedRaw(frame []byte) bool {
	w := 0
	if v, err := packet.ParseView(frame); err == nil {
		w = e.WorkerFor(v.Tuple())
	}
	return e.workers[w].ring.Push(frame)
}

// Stop asks the workers to drain their rings and exit, then waits for
// them. Feeders must have stopped first.
func (e *Engine) Stop() {
	if !e.running {
		return
	}
	e.stop.Store(true)
	e.wg.Wait()
	e.running = false
}

// ProcessRawInline runs the per-frame kernel on the caller's goroutine,
// bypassing the rings: the caller acts as its own run-to-completion
// worker, the path the throughput benchmarks drive from N goroutines.
// One up-front bounds validation (ParseView), one table lookup on the
// tuple read straight from the header bytes, then the compiled RawRule
// rewrite in place with incremental checksum folding — no allocation,
// no parse, no serialize. Rejected frames are untouched.
func (e *Engine) ProcessRawInline(frame []byte) Verdict {
	v, err := packet.ParseView(frame)
	if err != nil {
		return Rejected
	}
	ent := e.table.Lookup(v.Tuple())
	if ent == nil {
		return Pass
	}
	if ent.Dir == Egress {
		ent.raw.ApplyEgress(&v, !e.cfg.DisableOptionTranslation)
	} else {
		ent.raw.ApplyIngress(&v, !e.cfg.DisableOptionTranslation)
	}
	return Rewritten
}

// EngineStats aggregates the worker counters; valid after Stop.
type EngineStats struct {
	Processed uint64     `json:"processed"`
	Rewritten uint64     `json:"rewritten"`
	Rejected  uint64     `json:"rejected"`
	Table     TableStats `json:"table"`
}

// Stats returns the engine totals. Valid only after Stop (worker
// counters are unsynchronized worker-local state).
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Table: e.table.Stats()}
	for _, w := range e.workers {
		st.Processed += w.processed
		st.Rewritten += w.rewritten
		st.Rejected += w.rejected
	}
	return st
}

// run is the worker loop: run-to-completion batches, spin-yield when
// idle, exit once stopped AND drained (frames fed before Stop are never
// dropped).
func (w *worker) run() {
	defer w.eng.wg.Done()
	for {
		n := w.ring.PopBatch(w.batch)
		if n == 0 {
			if w.eng.stop.Load() && w.ring.Len() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		w.processed += uint64(n)
		for _, frame := range w.batch[:n] {
			w.processRaw(frame)
		}
	}
}

// processRaw handles one raw frame to completion, in place. Hot-path
// root: ParseView, the table lookup, and the RawRule kernel under it are
// proven alloc-free and non-blocking by the lint rules, and
// TestRawPathZeroAlloc pins the same claim dynamically; counters stay
// here, outside the kernel.
func (w *worker) processRaw(frame []byte) {
	switch w.eng.ProcessRawInline(frame) {
	case Rewritten:
		w.rewritten++
	case Rejected:
		w.rejected++
	case Pass:
	}
}
