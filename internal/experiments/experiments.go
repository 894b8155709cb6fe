// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment produces CSV series plus headline
// metrics; cmd/activebench prints them and bench_test.go wraps each in a
// testing.B benchmark. Absolute times differ from the paper's switch CPU —
// the reproduction criteria are the shapes: who wins, where capacity
// exhausts, what converges to what.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/apps"
	"activermt/internal/client"
	"activermt/internal/workload"
)

// RunConfig tunes experiment scale.
type RunConfig struct {
	// Quick shrinks trials/epochs for benchmark iterations.
	Quick bool
	Seed  int64
}

// Result is one regenerated figure or table.
type Result struct {
	ID      string
	Title   string
	CSV     string             // the figure's data series
	Notes   []string           // shape observations (capacities, convergence)
	Metrics map[string]float64 // headline numbers for EXPERIMENTS.md
}

// MetricKeys returns the Metrics names in sorted order, so printed metrics
// are byte-reproducible run to run.
func (r *Result) MetricKeys() []string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Spec registers an experiment.
type Spec struct {
	ID    string
	Title string
	Paper string // what the paper reports (the shape to reproduce)
	Run   func(cfg RunConfig) (*Result, error)

	// WallClock marks experiments whose CSV and metrics carry host
	// wall-clock measurements, so their values differ run to run; every
	// other experiment is byte-reproducible from its seed.
	WallClock bool
}

// Registry lists every experiment in figure order.
var Registry []Spec

func register(s Spec) { Registry = append(Registry, s) }

// Lookup finds an experiment by ID.
func Lookup(id string) (Spec, bool) {
	for _, s := range Registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// serviceConstraints returns the allocation constraints of the three
// exemplar applications, extracted from their real program templates so the
// allocator-level experiments and the data-plane services stay in lockstep.
func serviceConstraints(kind workload.AppKind) *alloc.Constraints {
	var svc *client.Service
	switch kind {
	case workload.KindCache:
		svc = apps.CacheService(&apps.Cache{})
	case workload.KindHeavyHitter:
		svc = apps.HeavyHitterService(apps.NewHeavyHitter(0))
	default:
		svc = apps.CheetahSelectService()
	}
	cons, err := svc.Constraints()
	if err != nil {
		panic(fmt.Sprintf("experiments: %s constraints: %v", kind, err))
	}
	cons.Name = kind.String()
	return cons
}

// allocatorWith builds an allocator with the given policy/scheme and
// default sizing.
func allocatorWith(pol alloc.Policy, scheme alloc.Scheme, blockWords int) *alloc.Allocator {
	cfg := alloc.DefaultConfig()
	cfg.Policy = pol
	cfg.Scheme = scheme
	if blockWords > 0 {
		cfg.BlockWords = blockWords
	}
	a, err := alloc.New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// fseconds renders a duration in float seconds for CSV.
func fseconds(d time.Duration) float64 { return d.Seconds() }

// fmtF trims float formatting in notes.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }

// sortedKeys returns map keys in order (deterministic notes).
func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
