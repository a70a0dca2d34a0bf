package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/program"
)

// TestCanonicalNameGolden pins the canonical spelling of generator
// names: keys sorted, values in shortest exact decimal form, defaults
// elided. These strings are load-bearing — they name store envelopes and
// matrix cells — so a change here invalidates every fleet bucket.
func TestCanonicalNameGolden(t *testing.T) {
	cases := []struct{ in, want string }{
		// A bare family is already canonical.
		{"gen:spill", "gen:spill"},
		{"gen:chase", "gen:chase"},
		{"gen:vector", "gen:vector"},
		{"gen:branchy", "gen:branchy"},
		// Explicit defaults are elided, whole query gone.
		{"gen:spill?depth=8", "gen:spill"},
		{"gen:spill?depth=8&dist=6&reuse=0.4&far=0.25&seed=0", "gen:spill"},
		{"gen:vector?width=4&trip=64", "gen:vector"},
		// Non-defaults survive, sorted by key.
		{"gen:spill?dist=16&depth=4", "gen:spill?depth=4&dist=16"},
		{"gen:spill?seed=3&depth=16", "gen:spill?depth=16&seed=3"},
		{"gen:branchy?calls=0.5&hard=0.9&branch=0.8", "gen:branchy?branch=0.8&calls=0.5&hard=0.9"},
		// Float values take their shortest exact form.
		{"gen:spill?far=0.50", "gen:spill?far=0.5"},
		{"gen:spill?far=5e-1", "gen:spill?far=0.5"},
		{"gen:chase?mix=0.40&nodes=16384", "gen:chase?mix=0.4&nodes=16384"},
		// A float written at its default value in another spelling is
		// still the default.
		{"gen:spill?reuse=4e-1", "gen:spill"},
		// The fleet-grid scenario's spellings are all already canonical.
		{"gen:spill?depth=16&far=0.5", "gen:spill?depth=16&far=0.5"},
		{"gen:chase?nodes=262144", "gen:chase?nodes=262144"},
		{"gen:vector?trip=128&width=6", "gen:vector?trip=128&width=6"},
		{"gen:branchy?hard=0.2", "gen:branchy?hard=0.2"},
		// Catalog names canonicalize to themselves.
		{"crafty", "crafty"},
		{"lbm", "lbm"},
	}
	for _, c := range cases {
		got, err := CanonicalName(c.in)
		if err != nil {
			t.Errorf("CanonicalName(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
		// Canonicalization is a fixed point.
		again, err := CanonicalName(got)
		if err != nil || again != got {
			t.Errorf("CanonicalName(%q) = %q, %v; not a fixed point", got, again, err)
		}
	}
}

// TestResolveRejects pins the validation errors of the gen: grammar.
func TestResolveRejects(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"gen:", "missing family"},
		{"gen:nope", "unknown family"},
		{"gen:spill?", "empty parameter list"},
		{"gen:spill?depth", "malformed parameter"},
		{"gen:spill?=8", "malformed parameter"},
		{"gen:spill?depth=", "malformed parameter"},
		{"gen:spill?weird=1", "unknown parameter"},
		{"gen:spill?depth=8&depth=9", "duplicate parameter"},
		{"gen:spill?depth=0", "out of range"},
		{"gen:spill?depth=65", "out of range"},
		{"gen:spill?depth=2.5", "want a decimal integer"},
		{"gen:spill?depth=-3", "want a decimal integer"},
		{"gen:spill?far=nan", "want a finite decimal"},
		{"gen:spill?far=1.5", "out of range"},
		{"gen:chase?nodes=8", "out of range"},
		{"nope", "unknown benchmark"},
	}
	for _, c := range cases {
		if _, err := Resolve(c.in); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Resolve(%q) err = %v, want substring %q", c.in, err, c.wantSub)
		}
	}
}

// FuzzResolve throws arbitrary names at the single entry point. Resolve
// must never panic; when it accepts a name, the canonical spelling must
// be a fixed point that resolves to the identical Spec.
func FuzzResolve(f *testing.F) {
	for _, seed := range []string{
		"crafty", "mcf", "nope",
		"gen:spill", "gen:spill?depth=8", "gen:spill?dist=16&depth=4",
		"gen:spill?far=5e-1", "gen:spill?depth=8&depth=9",
		"gen:chase?mix=0.4&nodes=16384", "gen:vector?trip=128&width=6",
		"gen:branchy?hard=0.9", "gen:", "gen:?", "gen:spill?",
		"gen:spill?depth=", "gen:spill?seed=18446744073709551615",
		"gen:spill?far=nan", "gen:spill?far=-0", "gen:spill?far=0.0000000000000001",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := Resolve(name)
		if err != nil {
			return
		}
		canonical, err := CanonicalName(name)
		if err != nil {
			t.Fatalf("Resolve(%q) ok but CanonicalName errs: %v", name, err)
		}
		if spec.Name != canonical {
			t.Fatalf("Resolve(%q).Name = %q, CanonicalName = %q", name, spec.Name, canonical)
		}
		again, err := Resolve(canonical)
		if err != nil {
			t.Fatalf("canonical %q does not resolve: %v", canonical, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("Resolve(%q) and Resolve(%q) disagree:\n%+v\n%+v", name, canonical, spec, again)
		}
		if c2, err := CanonicalName(canonical); err != nil || c2 != canonical {
			t.Fatalf("canonicalization not a fixed point: %q -> %q (%v)", canonical, c2, err)
		}
	})
}

// programDigest hashes everything observable about a built program: the
// full static instruction array, the entry PC, the initial memory image
// (in address order) and the initial register file. Two programs with
// equal digests are byte-identical as far as the simulator can see.
func programDigest(p *program.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%d\n", p.Name, p.Entry())
	pc := p.Entry()
	for i := 0; i < p.NumInsts(); i++ {
		in, ok := p.StaticAt(pc)
		if !ok {
			fmt.Fprintf(h, "hole@%d\n", pc)
			break
		}
		fmt.Fprintf(h, "%+v\n", *in)
		pc = p.NextPC(pc)
	}
	for a, v := range p.InitWords() {
		fmt.Fprintf(h, "m %d %d\n", a, v)
	}
	fmt.Fprintf(h, "r %v\n", p.InitRegs)
	return hex.EncodeToString(h.Sum(nil))
}

// crossProcessNames is the digest worklist for the cross-process
// determinism check: one point per family plus a catalog entry.
var crossProcessNames = []string{
	"crafty",
	"gen:spill?depth=16&far=0.5",
	"gen:chase?mix=0.4&nodes=16384",
	"gen:vector?trip=128&width=6",
	"gen:branchy?hard=0.9&seed=7",
}

const crossProcessEnv = "WORKLOADS_DIGEST_CHILD"

// TestCrossProcessDeterminism re-executes the test binary and compares
// program digests across the two processes: equal gen: names must build
// byte-identical programs in ANY process, because the fleet protocol
// (internal/fleet) assumes two hosts simulating the same cell produce
// the same store bytes. In-process determinism would not catch map
// iteration or address-dependent seeding leaking into program
// construction; a fresh process does.
func TestCrossProcessDeterminism(t *testing.T) {
	if os.Getenv(crossProcessEnv) == "1" {
		// Child mode: print one digest line per name and nothing else on
		// these lines' prefix.
		for _, name := range crossProcessNames {
			spec, err := Resolve(name)
			if err != nil {
				fmt.Printf("digest %s ERROR %v\n", name, err)
				continue
			}
			fmt.Printf("digest %s %s\n", name, programDigest(Build(spec)))
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no executable path: %v", err)
	}
	cmd := exec.Command(exe, "-test.run=^TestCrossProcessDeterminism$", "-test.v=false", "-test.count=1")
	cmd.Env = append(os.Environ(), crossProcessEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	theirs := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && fields[0] == "digest" {
			theirs[fields[1]] = strings.Join(fields[2:], " ")
		}
	}
	for _, name := range crossProcessNames {
		spec, err := Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		mine := programDigest(Build(spec))
		if theirs[name] == "" {
			t.Fatalf("child printed no digest for %q:\n%s", name, out)
		}
		if theirs[name] != mine {
			t.Errorf("%q: digest differs across processes:\n  parent %s\n  child  %s", name, mine, theirs[name])
		}
	}
}

// TestMemoizedTablesZeroAlloc pins the memoization of the catalog
// index: after the first touch, the whole lookup surface — the new API
// and the deprecated shims alike — allocates nothing per call.
func TestMemoizedTablesZeroAlloc(t *testing.T) {
	tables() // pay the once-cost outside the measured region
	allocs := testing.AllocsPerRun(100, func() {
		if m, ok := Members("all"); !ok || len(m) == 0 {
			t.Fatal("Members(all) empty")
		}
		Members("int")
		Members("fp")
		Groups()
		Names()
		IntNames()
		FPNames()
		Group("all")
		GroupNames()
		if _, err := Resolve("crafty"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized lookups allocate %v times per call, want 0", allocs)
	}
}

// TestMembersMatchesShims pins that the deprecated name-list shims are
// views of the same memoized tables Members serves, not parallel copies
// that could drift.
func TestMembersMatchesShims(t *testing.T) {
	for group, names := range map[string][]string{
		"all": Names(), "int": IntNames(), "fp": FPNames(),
	} {
		specs, ok := Members(group)
		if !ok {
			t.Fatalf("Members(%q) unknown", group)
		}
		if len(specs) != len(names) {
			t.Fatalf("Members(%q) has %d specs, shim lists %d names", group, len(specs), len(names))
		}
		for i, s := range specs {
			if s.Name != names[i] {
				t.Fatalf("Members(%q)[%d] = %q, shim name %q", group, i, s.Name, names[i])
			}
		}
	}
}
