package dispatch

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// warmStore fills a store with one result per key.
func warmStore(t *testing.T, s *sim.Store, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if err := s.Put(context.Background(), k, &sim.Result{Bench: k, StaticUops: 42, IPC: 1.5}); err != nil {
			t.Fatal(err)
		}
	}
}

// countingMux wraps a service handler and counts requests per
// "METHOD /path" — the sync tests' transfer-count assertions hang off it.
type countingMux struct {
	inner http.Handler

	mu     sync.Mutex
	counts map[string]int
}

func (c *countingMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.counts[r.Method+" "+r.URL.Path]++
	c.mu.Unlock()
	c.inner.ServeHTTP(w, r)
}

// syncService exposes a store over the federation endpoints.
func syncService(t *testing.T, store *sim.Store) (*httptest.Server, *countingMux) {
	t.Helper()
	counter := &countingMux{inner: NewService(sim.New(), store).Handler(), counts: map[string]int{}}
	ts := httptest.NewServer(counter)
	t.Cleanup(ts.Close)
	return ts, counter
}

func (c *countingMux) countPrefix(prefix string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, v := range c.counts {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// TestSyncTwoHostsConverge: two stores with a shared warm set and
// disjoint extras reconcile bidirectionally — the client pulls what
// only the server had, pushes what only it had, transfers nothing that
// both sides already held, and afterwards the two Merkle roots are
// equal. A second sync is a single hash exchange and zero transfers.
func TestSyncTwoHostsConverge(t *testing.T) {
	common := []string{"c-1", "c-2", "c-3", "c-4"}
	aOnly := []string{"a-only-1", "a-only-2", "a-only-3"}
	bOnly := []string{"b-only-1", "b-only-2"}

	mine := sim.NewStore(t.TempDir())
	warmStore(t, mine, append(append([]string{}, common...), aOnly...)...)
	theirs := sim.NewStore(t.TempDir())
	warmStore(t, theirs, append(append([]string{}, common...), bOnly...)...)

	ts, counter := syncService(t, theirs)
	h := NewHTTP(ts.URL)
	defer h.Close()

	st, err := h.Sync(context.Background(), mine)
	if err != nil {
		t.Fatal(err)
	}
	if st.InSync {
		t.Fatal("first sync claims the stores already agreed")
	}
	if st.Pulled != len(bOnly) || st.Pushed != len(aOnly) || st.PullRejected != 0 || st.PushRejected != 0 {
		t.Fatalf("sync stats %+v: want pulled %d, pushed %d, no rejections", st, len(bOnly), len(aOnly))
	}

	// Only the missing envelopes crossed the wire: one GET per pulled
	// entry, never one for an entry both sides held.
	if n := counter.countPrefix("GET /v1/store/"); n != len(bOnly) {
		t.Errorf("sync fetched %d envelopes, want exactly the %d missing ones", n, len(bOnly))
	}

	mm, err := mine.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tm, err := theirs.Manifest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mm.Root != tm.Root {
		t.Fatal("roots did not converge after sync")
	}
	if mm.Entries != len(common)+len(aOnly)+len(bOnly) {
		t.Fatalf("converged store counts %d entries, want %d", mm.Entries, len(common)+len(aOnly)+len(bOnly))
	}
	// The synced results are servable: every key loads from both sides.
	for _, k := range append(append(append([]string{}, common...), aOnly...), bOnly...) {
		if res, ok := mine.Load(context.Background(), k); !ok || res.Bench != k {
			t.Fatalf("key %q not loadable from the client store after sync", k)
		}
		if res, ok := theirs.Load(context.Background(), k); !ok || res.Bench != k {
			t.Fatalf("key %q not loadable from the server store after sync", k)
		}
	}

	st2, err := h.Sync(context.Background(), mine)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.InSync || st2.HashExchanges != 1 || st2.Pulled != 0 || st2.Pushed != 0 {
		t.Fatalf("second sync %+v: want in-sync after exactly one hash exchange and no transfers", st2)
	}
}

// TestSyncSingleShardDiffIsLogarithmic pins the wire complexity: when
// the two stores differ in exactly one shard, the walk costs exactly
// 1 + ManifestHeight hash exchanges (summary + one node per level) —
// O(log shards), not a shard-list scan.
func TestSyncSingleShardDiffIsLogarithmic(t *testing.T) {
	shared := []string{"s-1", "s-2", "s-3", "s-4", "s-5"}
	mine := sim.NewStore(t.TempDir())
	warmStore(t, mine, shared...)
	theirs := sim.NewStore(t.TempDir())
	warmStore(t, theirs, shared...)
	warmStore(t, theirs, "the-one-extra")

	ts, _ := syncService(t, theirs)
	h := NewHTTP(ts.URL)
	defer h.Close()

	st, err := h.Sync(context.Background(), mine)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsDiffer != 1 {
		t.Fatalf("one extra key should differ in exactly one shard, got %d", st.ShardsDiffer)
	}
	if want := 1 + sim.ManifestHeight; st.HashExchanges != want {
		t.Fatalf("single-shard diff cost %d hash exchanges, want exactly %d", st.HashExchanges, want)
	}
	if st.Pulled != 1 || st.Pushed != 0 {
		t.Fatalf("sync stats %+v: want exactly one pulled envelope", st)
	}
	mm, _ := mine.Manifest(context.Background())
	tm, _ := theirs.Manifest(context.Background())
	if mm.Root != tm.Root {
		t.Fatal("roots did not converge")
	}
}

// TestSyncForeignEnvelopeRejected: an envelope whose simulator version
// is not the receiver's is refused by the receiving store's validation
// — counted, not fatal — and the rest of the sync still completes.
func TestSyncForeignEnvelopeRejected(t *testing.T) {
	mine := sim.NewStore(t.TempDir())
	warmStore(t, mine, "good-1")
	// Plant a forged envelope in the client store by hand: a plausible
	// 64-hex name, a foreign sim_version. ShardList picks it up (it only
	// screens names), so Sync will try to push it.
	foreign := map[string]any{
		"schema":      "rs1",
		"sim_version": "s1-0000000000000000000000000000000000000000",
		"key":         "forged-key",
		"result":      map[string]any{"Bench": "forged"},
	}
	data, err := json.Marshal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	name := strings.Repeat("ab", 32)
	dir := filepath.Join(mine.Dir(), name[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	theirs := sim.NewStore(t.TempDir())
	ts, _ := syncService(t, theirs)
	h := NewHTTP(ts.URL)
	defer h.Close()

	st, err := h.Sync(context.Background(), mine)
	if err != nil {
		t.Fatal(err)
	}
	if st.PushRejected != 1 {
		t.Fatalf("sync stats %+v: want exactly one rejected push", st)
	}
	if st.Pushed != 1 {
		t.Fatalf("sync stats %+v: the legitimate envelope should still push", st)
	}
	if _, ok := theirs.Load(context.Background(), "good-1"); !ok {
		t.Fatal("legitimate envelope did not arrive")
	}
	if _, err := theirs.ReadRaw(context.Background(), name); err == nil {
		t.Fatal("forged envelope landed in the peer store")
	}
}

// TestSyncMetricsCounters: the server books sync activity — envelopes
// stored, rejected and served — in /metrics.
func TestSyncMetricsCounters(t *testing.T) {
	mine := sim.NewStore(t.TempDir())
	warmStore(t, mine, "push-me")
	theirs := sim.NewStore(t.TempDir())
	warmStore(t, theirs, "pull-me-1", "pull-me-2")

	ts, _ := syncService(t, theirs)
	h := NewHTTP(ts.URL)
	defer h.Close()
	if _, err := h.Sync(context.Background(), mine); err != nil {
		t.Fatal(err)
	}
	snap, err := h.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.SyncStored != 1 || snap.SyncServed != 2 || snap.SyncRejected != 0 {
		t.Fatalf("sync counters stored=%d served=%d rejected=%d, want 1, 2, 0",
			snap.SyncStored, snap.SyncServed, snap.SyncRejected)
	}
}
