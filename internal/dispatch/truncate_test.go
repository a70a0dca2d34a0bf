package dispatch

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sim"
)

// truncatingWriter fails every Write after the first n: the service-side
// view of a connection that died mid-stream, injected deterministically
// instead of racing a real connection teardown. The service's encoder
// hits the write error, latches it, and — the contract under test —
// never emits the completion trailer.
type truncatingWriter struct {
	http.ResponseWriter
	writesLeft int
}

var errInjectedCut = errors.New("injected: connection cut")

func (t *truncatingWriter) Write(p []byte) (int, error) {
	if t.writesLeft <= 0 {
		return 0, errInjectedCut
	}
	t.writesLeft--
	return t.ResponseWriter.Write(p)
}

// TestStreamTruncationDetectedAndResumable is the end-to-end pin for the
// trailer protocol:
//
//  1. A /v1/stream response cut mid-batch surfaces ErrTruncatedStream on
//     the client — not a silent short-but-plausible success.
//  2. The events delivered before the cut are real results.
//  3. A rerun against the service's store resumes the whole batch as
//     store hits, bit-identical to an uninterrupted local run.
func TestStreamTruncationDetectedAndResumable(t *testing.T) {
	reqs := []sim.Request{
		smallReq("crafty", 3000),
		smallReq("crafty", 3500),
		smallReq("gzip", 3000),
		smallReq("gzip", 3500),
	}
	ctx := context.Background()

	// Uninterrupted local control results.
	want := make([]*sim.Result, len(reqs))
	for i, req := range reqs {
		res, err := sim.Simulate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	// Service whose /v1/stream connection "dies" after two event lines.
	// json.Encoder issues one Write per NDJSON line, so a write budget of
	// 2 lets events 0 and 1 through and cuts the stream at event 2.
	store := sim.NewStore(t.TempDir())
	svc := NewService(sim.New(sim.WithStore(store)), store)
	inner := svc.Handler()
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stream" {
			w = &truncatingWriter{ResponseWriter: w, writesLeft: 2}
		}
		inner.ServeHTTP(w, r)
	}))
	defer cut.Close()

	h := NewHTTP(cut.URL)
	defer h.Close()
	var got []StreamEvent
	n, err := h.Stream(ctx, reqs, func(ev StreamEvent) { got = append(got, ev) })
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("cut stream: got %v, want ErrTruncatedStream", err)
	}
	if n != 2 || len(got) != 2 {
		t.Fatalf("cut stream delivered %d events (sink saw %d), want 2", n, len(got))
	}
	for _, ev := range got {
		if ev.Err != nil || ev.Result == nil {
			t.Fatalf("pre-cut event %d: err %v, result %v — delivered events must be whole", ev.Index, ev.Err, ev.Result)
		}
		if !resultsEqual(t, ev.Result, want[ev.Index]) {
			t.Fatalf("pre-cut event %d differs from local control", ev.Index)
		}
	}

	// The cut was transport-only: the service finished (and stored) the
	// whole batch. A rerun against the same store — fresh runner, fresh
	// server, healthy connection — resumes everything as store hits and
	// reproduces the control results bit-identically.
	resumed := httptest.NewServer(NewService(sim.New(sim.WithStore(store)), store).Handler())
	defer resumed.Close()
	h2 := NewHTTP(resumed.URL)
	defer h2.Close()
	events := make([]StreamEvent, 0, len(reqs))
	n, err = h2.Stream(ctx, reqs, func(ev StreamEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if n != len(reqs) {
		t.Fatalf("resumed stream delivered %d events, want %d", n, len(reqs))
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("resumed event %d: %v", ev.Index, ev.Err)
		}
		if ev.Source != sim.SourceStore.String() {
			t.Fatalf("resumed event %d came from %q, want %q (the store resume)", ev.Index, ev.Source, sim.SourceStore)
		}
		if !resultsEqual(t, ev.Result, want[ev.Index]) {
			t.Fatalf("resumed event %d differs from local control — store resume must be bit-identical", ev.Index)
		}
	}
}

// TestStreamCompleteCarriesTrailer is the happy-path counterpart: an
// uninterrupted client Stream sees every event and no truncation error,
// which can only happen when the trailer arrived and its count matched.
func TestStreamCompleteCarriesTrailer(t *testing.T) {
	ts, _ := newTestService(t)
	h := NewHTTP(ts.URL)
	defer h.Close()
	reqs := []sim.Request{smallReq("crafty", 3000), smallReq("gzip", 3000)}
	n, err := h.Stream(context.Background(), reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) {
		t.Fatalf("delivered %d events, want %d", n, len(reqs))
	}
}

// TestStreamPoisonedItemIsolated: a poisoned item in a multi-request
// stream travels as data. Its event carries the typed ErrUnknownBenchmark
// while its siblings carry results, and it still counts toward the
// trailer, so the stream as a whole completes cleanly.
func TestStreamPoisonedItemIsolated(t *testing.T) {
	ts, _ := newTestService(t)
	h := NewHTTP(ts.URL)
	defer h.Close()
	reqs := []sim.Request{smallReq("crafty", 3000), smallReq("no-such-bench", 3000), smallReq("gzip", 3000)}
	events := map[int]StreamEvent{}
	n, err := h.Stream(context.Background(), reqs, func(ev StreamEvent) { events[ev.Index] = ev })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(reqs) || len(events) != len(reqs) {
		t.Fatalf("delivered %d events (sink saw %d), want %d", n, len(events), len(reqs))
	}
	for _, i := range []int{0, 2} {
		if ev := events[i]; ev.Err != nil || ev.Result == nil {
			t.Errorf("event %d: err %v, result %v, want a result", i, ev.Err, ev.Result)
		}
	}
	if ev := events[1]; ev.Result != nil || !errors.Is(ev.Err, sim.ErrUnknownBenchmark) {
		t.Errorf("event 1: err %v, want a sim.ErrUnknownBenchmark wrap and no result", ev.Err)
	}
}

// TestTrailerCountMismatchIsTruncation: a trailer whose count disagrees
// with the delivered events is truncation too — a proxy that dropped a
// line must not pass for a clean stream.
func TestTrailerCountMismatchIsTruncation(t *testing.T) {
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		var buf bytes.Buffer
		buf.WriteString(`{"index":0,"bench":"crafty","source":"simulated","result":null}` + "\n")
		buf.WriteString(`{"done":true,"events":2}` + "\n")
		w.Write(buf.Bytes())
	}))
	defer lying.Close()

	h := NewHTTP(lying.URL)
	defer h.Close()
	n, err := h.Stream(context.Background(), []sim.Request{smallReq("crafty", 3000), smallReq("gzip", 3000)}, nil)
	if !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("count mismatch: got %v, want ErrTruncatedStream", err)
	}
	if n != 1 {
		t.Fatalf("saw %d events, want 1", n)
	}
}
