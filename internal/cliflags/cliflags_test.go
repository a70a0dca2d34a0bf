package cliflags

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSharedRegistration: one call registers the whole shared contract
// — backend, simver and the three store flags.
func TestSharedRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	RegisterRunnerFlags(fs)
	for _, name := range []string{"backend", "simver", "store", "s3-endpoint", "store-cache"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	f2 := RegisterRunnerFlags(fs2, WithoutBackend())
	if fs2.Lookup("backend") != nil {
		t.Error("WithoutBackend still registered -backend")
	}
	if f2.BackendSpec() != "" {
		t.Error("BackendSpec nonempty without a backend flag")
	}

	fs3 := flag.NewFlagSet("z", flag.ContinueOnError)
	RegisterRunnerFlags(fs3, WithBackendHelp("custom help"))
	if got := fs3.Lookup("backend").Usage; got != "custom help" {
		t.Errorf("backend help = %q", got)
	}
}

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterRunnerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStoreSpecPassesThrough: -store reaches the store layer verbatim.
func TestStoreSpecPassesThrough(t *testing.T) {
	for _, spec := range []string{"", "fs:/tmp/x", "mem:", "s3://bucket/prefix"} {
		if got := parse(t, "-store", spec).StoreSpec(); got != spec {
			t.Errorf("-store %q resolved to %q", spec, got)
		}
	}
}

// TestStoreOptions: -s3-endpoint and -store-cache each become one
// objstore option, and neither set means none.
func TestStoreOptions(t *testing.T) {
	if n := len(parse(t).StoreOptions()); n != 0 {
		t.Errorf("no s3 knobs gave %d options, want 0", n)
	}
	if n := len(parse(t, "-s3-endpoint", "http://127.0.0.1:9000").StoreOptions()); n != 1 {
		t.Errorf("-s3-endpoint gave %d options, want 1", n)
	}
	f := parse(t, "-s3-endpoint", "http://127.0.0.1:9000", "-store-cache", t.TempDir())
	if n := len(f.StoreOptions()); n != 2 {
		t.Errorf("-s3-endpoint and -store-cache gave %d options, want 2", n)
	}
}

// TestOpenStoreResolvesBackends: fs: and mem: specs open the matching
// backend, no -store means storage off, and a bad spec errors.
func TestOpenStoreResolvesBackends(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"fs:" + t.TempDir(), "fs:"},
		{"mem:", "mem:"},
	} {
		s, err := parse(t, "-store", tc.spec).OpenStore()
		if err != nil {
			t.Fatalf("OpenStore(%q): %v", tc.spec, err)
		}
		if s == nil || !strings.HasPrefix(s.Spec(), tc.want) {
			t.Fatalf("OpenStore(%q) spec = %v, want prefix %q", tc.spec, s, tc.want)
		}
		s.Close()
	}

	if s, err := parse(t).OpenStore(); s != nil || err != nil {
		t.Fatalf("OpenStore() with no flags = (%v, %v), want (nil, nil)", s, err)
	}
	if _, err := parse(t, "-store", "ftp://nope").OpenStore(); err == nil {
		t.Fatal("bad -store spec did not error")
	}
}

// TestPrintVersion: -simver prints the envelope version and signals the
// command to stop.
func TestPrintVersion(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterRunnerFlags(fs)
	if err := fs.Parse([]string{"-simver"}); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if !f.PrintVersion(&out) {
		t.Fatal("PrintVersion did not fire for -simver")
	}
	if got := strings.TrimSpace(out.String()); got != sim.Version() {
		t.Fatalf("printed %q, want %q", got, sim.Version())
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	f2 := RegisterRunnerFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f2.PrintVersion(&out) {
		t.Fatal("PrintVersion fired without -simver")
	}
}

// TestBuild: local backend + fs store resolve into runner options; a
// bad store spec fails without leaking the backend.
func TestBuild(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := RegisterRunnerFlags(fs)
	if err := fs.Parse([]string{"-store", "fs:" + t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	b, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Backend == nil || b.Store == nil {
		t.Fatalf("build incomplete: %+v", b)
	}
	if len(b.RunnerOptions()) == 0 {
		t.Fatal("no runner options from a backend+store build")
	}
	if sim.New(b.RunnerOptions()...) == nil {
		t.Fatal("options do not build a runner")
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	f2 := RegisterRunnerFlags(fs2)
	if err := fs2.Parse([]string{"-store", "gopher://nope"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Build(); err == nil {
		t.Fatal("bad store spec accepted")
	}

	// Storage off, no backend: an empty but usable Built.
	fs3 := flag.NewFlagSet("z", flag.ContinueOnError)
	f3 := RegisterRunnerFlags(fs3, WithoutBackend())
	if err := fs3.Parse(nil); err != nil {
		t.Fatal(err)
	}
	b3, err := f3.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	if b3.Backend != nil || b3.Store != nil || len(b3.RunnerOptions()) != 0 {
		t.Fatalf("empty build not empty: %+v", b3)
	}
	var nilBuilt *Built
	nilBuilt.Close() // must not panic
}
