package main

import (
	"slices"
	"testing"

	"repro/internal/scenario"
)

// TestSelectExperimentsExactNames: -exp takes exact names only — a
// substring of a known name is an error, not an empty run.
func TestSelectExperimentsExactNames(t *testing.T) {
	for _, bad := range []string{"fig", "5a", "ig6", "", "nosuch", "all "} {
		if got, err := selectExperiments(bad); err == nil {
			t.Errorf("-exp %q accepted, selects %v", bad, got)
		}
	}
	for _, name := range experimentNames {
		got, err := selectExperiments(name)
		if err != nil || !slices.Equal(got, []string{name}) {
			t.Errorf("-exp %q = %v, %v; want [%s]", name, got, err, name)
		}
	}
	if got, err := selectExperiments("all"); err != nil || !slices.Equal(got, experimentNames) {
		t.Errorf("-exp all = %v, %v; want every experiment in order", got, err)
	}
}

// TestSeriesExperimentsAreScenarios: every experiment without a Go
// table renders the committed scenario of the same name, so that
// scenario must exist and expand.
func TestSeriesExperimentsAreScenarios(t *testing.T) {
	for name := range goTables {
		if !slices.Contains(experimentNames, name) {
			t.Errorf("Go table %q is not in experimentNames", name)
		}
	}
	for _, name := range experimentNames {
		if _, ok := goTables[name]; ok {
			continue
		}
		spec, err := scenario.Builtin(name)
		if err != nil {
			t.Errorf("experiment %q: %v", name, err)
			continue
		}
		if _, err := spec.Expand(scenario.Overrides{}); err != nil {
			t.Errorf("experiment %q does not expand: %v", name, err)
		}
	}
}
