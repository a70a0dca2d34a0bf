// Package repolint assembles the repository's analyzer suite in one
// place, so the vettool (cmd/repolint), the in-tree guard tests and any
// future driver all agree on exactly which invariants are machine
// checked.
package repolint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/ctxfirst"
	"repro/internal/analysis/errtaxonomy"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/nodeterm"
	"repro/internal/analysis/sinkcheck"
	"repro/internal/analysis/wirecheck"
)

// Analyzers is the full repolint suite, in stable reporting order.
var Analyzers = []*analysis.Analyzer{
	ctxfirst.Analyzer,
	errtaxonomy.Analyzer,
	hotalloc.Analyzer,
	nodeterm.Analyzer,
	sinkcheck.Analyzer,
	wirecheck.Analyzer,
}
