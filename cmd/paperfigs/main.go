// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the
// paper reports; absolute numbers differ (different substrate and
// workloads) but the shape — who wins, by roughly what factor, where the
// crossovers fall — is the reproduction target.
//
// The speedup-series figures (fig5a, fig6a, fig6c, fig7, ddt, storeonly,
// cwidth, rob512, singlebit, disthist, trackers) are committed scenario
// specs under internal/scenario/specs, rendered by name; the other
// tables (table1, storage, fig4, fig5b, fig6b, ports) are Go code in
// internal/experiments. -scenario runs any committed or on-disk spec
// directly.
//
// Usage:
//
//	paperfigs                 # everything
//	paperfigs -exp fig6a      # one experiment
//	paperfigs -scenario branch-hostile   # a committed scenario by name
//	paperfigs -scenario my.scenario      # or a spec file
//	paperfigs -measure 300000 # longer runs
//	paperfigs -store fs:.simcache  # reuse simulations across invocations
//	paperfigs -backend pool:8      # crash-isolated worker subprocesses
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// experimentNames lists every -exp name in the order -exp all prints
// them. A name with an entry in goTables is rendered by Go code; every
// other name is the committed scenario of the same name.
var experimentNames = []string{
	"table1", "storage", "fig4", "fig5a", "fig5b", "fig6a", "fig6b", "fig6c", "fig7",
	"ddt", "storeonly", "cwidth", "ports", "rob512", "singlebit", "disthist", "trackers",
}

// goTables renders the experiments that are not speedup series.
var goTables = map[string]func(*experiments.Session) fmt.Stringer{
	"table1":  func(*experiments.Session) fmt.Stringer { return experiments.Table1() },
	"storage": func(*experiments.Session) fmt.Stringer { return experiments.StorageTable() },
	"fig4":    func(s *experiments.Session) fmt.Stringer { return s.Fig4() },
	"fig5b": func(s *experiments.Session) fmt.Stringer {
		t, _ := s.Fig5b()
		return t
	},
	"fig6b": func(s *experiments.Session) fmt.Stringer { return s.Fig6b() },
	"ports": func(s *experiments.Session) fmt.Stringer { return s.ISRBTraffic() },
}

// render produces one experiment's table.
func render(s *experiments.Session, name string) fmt.Stringer {
	if table, ok := goTables[name]; ok {
		return table(s)
	}
	t, _ := s.Scenario(name)
	return t
}

// selectExperiments resolves the -exp flag to the experiments to run,
// in output order. Only exact names are accepted.
func selectExperiments(exp string) ([]string, error) {
	if exp == "all" {
		return experimentNames, nil
	}
	if slices.Contains(experimentNames, exp) {
		return []string{exp}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (known: %s all)", exp, strings.Join(experimentNames, " "))
}

func main() {
	dispatch.MaybeWorker()
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|")+"|all")
		scen    = flag.String("scenario", "", "run one scenario instead: a builtin name or a .scenario file path")
		warmup  = flag.Uint64("warmup", experiments.DefaultRunLengths.Warmup, "warmup instructions per run")
		measure = flag.Uint64("measure", experiments.DefaultRunLengths.Measure, "measured instructions per run")
	)
	rf := cliflags.RegisterRunnerFlags(flag.CommandLine)
	flag.Parse()

	if rf.PrintVersion(os.Stdout) {
		return
	}
	names, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b, err := rf.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer b.Close()

	// ^C cancels the context; the session's figure methods then panic
	// with a sim.ErrCanceled-wrapping error, which the deferred recover
	// turns into a clean exit (completed simulations stay in -store).
	ctx := sim.SignalContext()
	runner := sim.New(b.RunnerOptions()...)
	progress := sim.NewProgress(os.Stderr, runner, 0)
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(error); ok && errors.Is(err, sim.ErrCanceled) {
				progress.Finish()
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			panic(v)
		}
	}()
	start := time.Now()

	if *scen != "" {
		if *exp != "all" {
			fmt.Fprintln(os.Stderr, "use either -exp or -scenario, not both")
			os.Exit(1)
		}
		spec, err := scenario.Resolve(*scen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		matrix, err := spec.Expand(scenario.CommandOverrides(warmup, measure, ""))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		progress.AddTotal(len(matrix.Requests))
		rep, err := matrix.Run(ctx, runner, progress.Observe)
		progress.Finish()
		if err != nil {
			if errors.Is(err, sim.ErrCanceled) {
				fmt.Fprintln(os.Stderr, "interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(rep.Table())
		reportCounters(runner, start)
		return
	}

	// Figure sweeps discover work figure by figure, so the total is
	// unknown upfront; the progress line shows the running done count.
	s := experiments.NewSessionContext(ctx, experiments.RunLengths{Warmup: *warmup, Measure: *measure}, runner)
	s.OnEvent = progress.Observe
	for _, name := range names {
		t := render(s, name)
		// Terminate the live progress line before each table so stdout
		// and the stderr progress line never interleave mid-draw.
		progress.Finish()
		fmt.Println(t)
	}
	progress.Finish()
	reportCounters(runner, start)
}

// reportCounters prints the run's cost accounting on stderr.
func reportCounters(runner *sim.Runner, start time.Time) {
	c := runner.Counters()
	fmt.Fprintf(os.Stderr, "total time: %v (%d simulated, %d deduplicated, %d from disk cache)\n",
		time.Since(start).Round(time.Millisecond), c.Simulated, c.MemHits, c.DiskHits)
}
