package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sim"
)

// newTestService spins up the regshared service over a fresh runner
// backed by a store in a temp dir.
func newTestService(t *testing.T) (*httptest.Server, *sim.Store) {
	t.Helper()
	store := sim.NewStore(t.TempDir())
	runner := sim.New(sim.WithStore(store))
	ts := httptest.NewServer(NewService(runner, store).Handler())
	t.Cleanup(ts.Close)
	return ts, store
}

// TestServiceRunRoundTrip: POST /v1/run executes and returns the same
// result an in-process run produces, and the result lands in the store
// where GET /v1/results/{key} serves it back.
func TestServiceRunRoundTrip(t *testing.T) {
	ts, _ := newTestService(t)
	req := smallReq("crafty", 3000)
	want, err := sim.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	h := NewHTTP(ts.URL)
	defer h.Close()
	got, err := h.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(t, got, want) {
		t.Fatal("service result differs from in-process result")
	}

	resp, err := http.Get(ts.URL + "/v1/results/" + sim.Key(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results: %s", resp.Status)
	}
	var stored sim.Result
	if err := json.NewDecoder(resp.Body).Decode(&stored); err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(t, &stored, want) {
		t.Fatal("stored result served over the wire differs")
	}
}

// TestServiceErrorTaxonomy: service-side typed errors come back as
// status + (kind, message) and re-wrap into the sim sentinels on the
// client.
func TestServiceErrorTaxonomy(t *testing.T) {
	ts, _ := newTestService(t)
	h := NewHTTP(ts.URL)
	defer h.Close()

	_, err := h.Execute(context.Background(), smallReq("no-such-bench", 3000))
	if !errors.Is(err, sim.ErrUnknownBenchmark) {
		t.Fatalf("got %v, want ErrUnknownBenchmark", err)
	}
	bad := smallReq("crafty", 3000)
	bad.Measure = 0
	_, err = h.Execute(context.Background(), bad)
	if !errors.Is(err, sim.ErrBadConfig) {
		t.Fatalf("got %v, want ErrBadConfig", err)
	}

	// Raw status codes for non-Go clients.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: got %s, want 400", resp.Status)
	}
}

// TestServiceResultsMiss: an unknown key (and a service with no store)
// answers 404.
func TestServiceResultsMiss(t *testing.T) {
	ts, _ := newTestService(t)
	resp, err := http.Get(ts.URL + "/v1/results/no-such-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("got %s, want 404", resp.Status)
	}

	storeless := httptest.NewServer(NewService(sim.New(), nil).Handler())
	defer storeless.Close()
	resp, err = http.Get(storeless.URL + "/v1/results/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("storeless service: got %s, want 404", resp.Status)
	}

	// The Go client re-wraps the 404's (kind, message) pair into the
	// typed ErrNotFound sentinel — a miss, not a service fault.
	h := NewHTTP(ts.URL)
	defer h.Close()
	if _, err := h.Result(context.Background(), "no-such-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("client Result miss: got %v, want ErrNotFound", err)
	}
}

// TestServiceResultParameterisedKey: a gen: key carries '?' and '&',
// which must reach GET /v1/results/{key} escaped rather than cut the
// path at the query separator.
func TestServiceResultParameterisedKey(t *testing.T) {
	ts, store := newTestService(t)
	req := smallReq("gen:spill?depth=16&seed=3", 2000)
	want, err := sim.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	key := sim.Key(req)
	if err := store.Put(context.Background(), key, want); err != nil {
		t.Fatal(err)
	}

	h := NewHTTP(ts.URL)
	defer h.Close()
	got, err := h.Result(context.Background(), key)
	if err != nil {
		t.Fatalf("Result(%q): %v", key, err)
	}
	if !resultsEqual(t, got, want) {
		t.Fatal("result served for a parameterised key differs from the stored one")
	}
}

// TestServiceStreamNDJSON: POST /v1/stream emits one event per request
// — results for the good ones, typed error kinds for the bad one —
// mirroring sim.Stream's event contract.
func TestServiceStreamNDJSON(t *testing.T) {
	ts, _ := newTestService(t)
	reqs := []sim.Request{
		smallReq("crafty", 3000),
		smallReq("no-such-bench", 3000),
		smallReq("gzip", 3000),
	}
	body, _ := json.Marshal(map[string]any{"requests": reqs})
	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	events := map[int]wireEvent{}
	trailerSeen := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if trailerSeen {
			t.Fatalf("line after the trailer: %q", sc.Text())
		}
		var line struct {
			wireEvent
			streamTrailer
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			trailerSeen = true
			if line.Events != len(events) {
				t.Fatalf("trailer says %d events, stream had %d", line.Events, len(events))
			}
			continue
		}
		events[line.Index] = line.wireEvent
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !trailerSeen {
		t.Fatal("stream ended without its {\"done\":true} trailer")
	}
	if len(events) != len(reqs) {
		t.Fatalf("got %d events, want %d", len(events), len(reqs))
	}
	for _, i := range []int{0, 2} {
		ev := events[i]
		if ev.Result == nil || ev.Error != "" || ev.Source != "simulated" {
			t.Fatalf("event %d: %+v, want a simulated result", i, summarize(ev))
		}
	}
	if ev := events[1]; ev.Result != nil || ev.Kind != kindUnknownBenchmark {
		t.Fatalf("event 1: %+v, want error kind %q", summarize(ev), kindUnknownBenchmark)
	}
}

// summarize keeps failure output readable (a Result dump is huge).
func summarize(ev wireEvent) string {
	has := "no result"
	if ev.Result != nil {
		has = "result"
	}
	return fmt.Sprintf("{index:%d key:%q source:%q %s error:%q kind:%q}",
		ev.Index, ev.Key, ev.Source, has, ev.Error, ev.Kind)
}
