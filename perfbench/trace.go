package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/objstore"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// span is one timed call into a layer's public function. Spans of one
// request share req: the store entry name of its sim.Key, which is also
// the only name the object store sees, so executor, Runner, store and
// client spans of a request line up without threading IDs through the
// program.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out once the run
// ends. A nil *tracer records nothing, so call sites need no checks.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// ctxKey carries the current span through a context.
type ctxKey struct{}

type spanCtx struct {
	id  uint64
	req string
}

// begin opens a span named name as a child of ctx's span. req names
// the request ("" inherits ctx's). The returned end func closes it;
// bytes and failed annotate the span.
func (t *tracer) begin(ctx context.Context, name, req string) (context.Context, func(bytes int64, failed bool)) {
	if t == nil {
		return ctx, func(int64, bool) {}
	}
	parent, _ := ctx.Value(ctxKey{}).(spanCtx)
	if req == "" {
		req = parent.req
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	start := time.Since(t.origin).Nanoseconds()
	ctx = context.WithValue(ctx, ctxKey{}, spanCtx{id: id, req: req})
	return ctx, func(bytes int64, failed bool) {
		end := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent.id, Req: req, Name: name, Start: start, End: end, Bytes: bytes, Failed: failed})
		t.mu.Unlock()
	}
}

// since returns a copy of the spans that started at or after the
// origin-relative time from.
func (t *tracer) since(from int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// now returns the current origin-relative time.
func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqID is the request identifier spans share: the store entry name of
// the request's key (sim.Store names entries by the SHA-256 of the key).
func reqID(key string) string {
	d := sha256.Sum256([]byte(key))
	return hex.EncodeToString(d[:])
}

// cellCounts sums the exact simulation counters of the cells a traced
// executor produced.
type cellCounts struct {
	mu            sync.Mutex
	cycles        uint64
	committed     uint64
	fetched       uint64
	squashed      uint64
	mispredicts   uint64
	stallROB      uint64
	stallIQ       uint64
	stallFreeList uint64
	shares        uint64
	shareFails    uint64
	commitChecks  uint64
	restores      uint64
	eliminated    uint64
	bypassed      uint64
	l1dMisses     uint64
	l2Misses      uint64
	dramReads     uint64
	allocBytes    uint64
	allocCycles   uint64
}

func (c *cellCounts) add(res *sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &res.S
	c.cycles += s.Cycles
	c.committed += s.Committed
	c.fetched += s.FetchedUops
	c.squashed += s.SquashedUops
	c.mispredicts += s.BranchMispredicts
	c.stallROB += s.StallROB
	c.stallIQ += s.StallIQ
	c.stallFreeList += s.StallFreeList
	t := &res.Tracker
	c.shares += t.SharesME + t.SharesSMB
	c.shareFails += t.ShareFailsFull + t.ShareFailsSat + t.ShareFailsKind
	c.commitChecks += t.CommitChecks
	c.restores += t.Restores
	c.eliminated += res.ME.Eliminated
	c.bypassed += s.CommittedBypassed
	c.l1dMisses += res.Mem.L1DMisses
	c.l2Misses += res.Mem.L2Misses
	c.dramReads += res.Mem.DRAMReads
}

// tracedExecutor is the benchmark's copy of sim.Simulate with each
// public call it makes as its own span: sim.Request.Validate,
// workloads.Resolve, workloads.Build, core.New, Core.RunContext split
// into its warmup and measure halves, and sim.Snapshot. Splitting
// RunContext this way gives the same result as one call
// (TestSplitRunContextMatchesSimulate). measureAllocs brackets the
// measure half with runtime.ReadMemStats; it is only meaningful when
// cells run one at a time.
//
// It is a copy: a change inside sim.simulate shows in the untraced
// end-to-end numbers but not in this split.
func tracedExecutor(tr *tracer, counts *cellCounts, measureAllocs bool) sim.Executor {
	return func(ctx context.Context, req sim.Request) (*sim.Result, error) {
		ctx, end := tr.begin(ctx, "sim.exec", reqID(sim.Key(req)))
		res, err := tracedSimulate(ctx, tr, counts, measureAllocs, req)
		end(0, err != nil)
		if err == nil {
			counts.add(res)
		}
		return res, err
	}
}

func tracedSimulate(ctx context.Context, tr *tracer, counts *cellCounts, measureAllocs bool, req sim.Request) (*sim.Result, error) {
	_, end := tr.begin(ctx, "sim.Validate", "")
	err := req.Validate()
	end(0, err != nil)
	if err != nil {
		return nil, err
	}
	_, end = tr.begin(ctx, "workloads.Resolve", "")
	spec, err := workloads.Resolve(req.Bench)
	end(0, err != nil)
	if err != nil {
		return nil, fmt.Errorf("sim: %w %q", sim.ErrUnknownBenchmark, req.Bench)
	}
	_, end = tr.begin(ctx, "workloads.Build", "")
	prog := workloads.Build(spec)
	end(0, false)
	_, end = tr.begin(ctx, "core.New", "")
	c := core.New(req.Config, prog)
	end(0, false)
	_, end = tr.begin(ctx, "core.RunContext.warmup", "")
	_, err = c.RunContext(ctx, req.Warmup, 0)
	end(0, err != nil)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w: %w", req.Bench, sim.ErrCanceled, err)
	}
	var before, after runtime.MemStats
	_, end = tr.begin(ctx, "core.RunContext.measure", "")
	if measureAllocs {
		runtime.ReadMemStats(&before)
	}
	st, err := c.RunContext(ctx, 0, req.Measure)
	if measureAllocs {
		runtime.ReadMemStats(&after)
	}
	end(0, err != nil)
	if err != nil {
		return nil, fmt.Errorf("sim: %s: %w: %w", req.Bench, sim.ErrCanceled, err)
	}
	if measureAllocs {
		counts.mu.Lock()
		counts.allocBytes += after.TotalAlloc - before.TotalAlloc
		counts.allocCycles += st.Cycles
		counts.mu.Unlock()
	}
	_, end = tr.begin(ctx, "sim.Snapshot", "")
	res := sim.Snapshot(req.Bench, prog.NumInsts(), c, st)
	end(0, false)
	return res, nil
}

// timedBackend is a timing decorator around an objstore.Backend: every
// call is one span named prefix + the operation, with the entry name
// as its request ID and the bytes moved. It changes nothing it passes
// through (TestTimedBackendTransparent).
type timedBackend struct {
	objstore.Backend
	tr     *tracer
	prefix string // "objstore." for the results store, "lease." for the fleet lease area
}

func (b *timedBackend) Get(ctx context.Context, name string) ([]byte, error) {
	_, end := b.tr.begin(ctx, b.prefix+"get", name)
	data, err := b.Backend.Get(ctx, name)
	end(int64(len(data)), err != nil)
	return data, err
}

func (b *timedBackend) Put(ctx context.Context, name string, data []byte) error {
	_, end := b.tr.begin(ctx, b.prefix+"put", name)
	err := b.Backend.Put(ctx, name, data)
	end(int64(len(data)), err != nil)
	return err
}

func (b *timedBackend) PutIfAbsent(ctx context.Context, name string, data []byte) (bool, error) {
	_, end := b.tr.begin(ctx, b.prefix+"put_if_absent", name)
	stored, err := b.Backend.PutIfAbsent(ctx, name, data)
	n := int64(0)
	if stored {
		n = int64(len(data))
	}
	end(n, err != nil)
	return stored, err
}

func (b *timedBackend) List(ctx context.Context, shard string) ([]objstore.Object, error) {
	_, end := b.tr.begin(ctx, b.prefix+"list", "")
	objs, err := b.Backend.List(ctx, shard)
	end(0, err != nil)
	return objs, err
}

// openBackend opens the fs backend at dir, wrapped in the timing
// decorator when tracing, and metered like every store objstore.New
// builds.
func openBackend(dir string, tr *tracer, prefix string) (*objstore.Metered, error) {
	if tr == nil {
		return objstore.New("fs:" + dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return objstore.Meter(&timedBackend{Backend: objstore.NewFS(dir), tr: tr, prefix: prefix}), nil
}
