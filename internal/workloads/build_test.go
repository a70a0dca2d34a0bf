package workloads

import (
	"runtime"
	"testing"

	"repro/internal/program"
)

// TestBuildAllocBound guards construction cost: building swim (a 1M-word
// memory image) and starting an executor on it may allocate at most 3×
// the image's bytes — the image once in Build, its copy in NewExecutor,
// and slack for the code. Seeding memory word by word through a map
// allocates over 40 MB, so the bound catches a return to it.
func TestBuildAllocBound(t *testing.T) {
	spec, err := Resolve("swim")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := Build(spec)
	e := program.NewExecutor(p)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(e)

	words := 0
	for range p.InitWords() {
		words++
	}
	if words < 1<<20 {
		t.Fatalf("swim image has %d words, want at least 1M", words)
	}
	imageBytes := uint64(words) * 8
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*imageBytes {
		t.Fatalf("Build + NewExecutor allocated %d bytes, over 3× the %d-byte image", alloc, imageBytes)
	}
}

// BenchmarkBuild measures program construction for shapes with large
// memory images.
func BenchmarkBuild(b *testing.B) {
	for _, name := range []string{"mcf", "swim"} {
		b.Run(name, func(b *testing.B) {
			spec, err := Resolve(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				Build(spec)
			}
		})
	}
}
