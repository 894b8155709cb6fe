package experiments

import (
	"fmt"
	"strings"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/stats"
	"activermt/internal/workload"
)

func init() {
	register(Spec{
		ID:    "fig11",
		Title: "Allocation scheme comparison (wf/ff/bf/realloc)",
		Paper: "Over 100 Poisson epochs x 10 trials: worst fit and realloc are competitive on utilization and reallocations, but worst fit has a dramatically lower failure rate; wf fairness trails ff/bf but beats realloc and stays high in the median.",
		Run:   runFig11,
	})
	register(Spec{
		ID:    "fig12",
		Title: "Allocation time vs. block granularity",
		Paper: "Total control-plane allocation time for 100 arrivals at 512B-4KB granularity, most-constrained: the finer the granularity the more complex the allocation; the impact varies across application mixes.",
		Run:   runFig12,

		WallClock: true,
	})
}

// schemeStats aggregates one scheme's behavior across epochs and trials.
type schemeStats struct {
	util, reallocFrac, jain, failRate []float64
}

func runFig11(cfg RunConfig) (*Result, error) {
	epochs, trials := 100, 10
	if cfg.Quick {
		epochs, trials = 40, 3
	}
	schemes := []alloc.Scheme{alloc.WorstFit, alloc.FirstFit, alloc.BestFit, alloc.MinRealloc}
	res := &Result{ID: "fig11", Title: "scheme comparison distributions", Metrics: map[string]float64{}}

	var b strings.Builder
	b.WriteString("scheme,metric,p25,p50,p75,mean\n")
	for _, sc := range schemes {
		agg := schemeStats{}
		for trial := 0; trial < trials; trial++ {
			cfgA := alloc.DefaultConfig()
			cfgA.Scheme = sc
			a, err := alloc.New(cfgA)
			if err != nil {
				return nil, err
			}
			seq := workload.NewSequence(cfg.Seed + int64(trial)*29)
			kinds := map[uint16]workload.AppKind{}
			for epoch := 0; epoch < epochs; epoch++ {
				arrivals, fails := 0, 0
				reallocated := map[uint16]bool{}
				for _, ev := range seq.PoissonEpoch(epoch, 2, 1) {
					if !ev.Arrive {
						delete(kinds, ev.FID)
						if changed, err := a.Release(ev.FID); err == nil {
							for _, pl := range changed {
								reallocated[pl.FID] = true
							}
						}
						continue
					}
					arrivals++
					r, err := a.Allocate(ev.FID, serviceConstraints(ev.Kind))
					if err != nil || r.Failed {
						fails++
						seq.Drop(ev.FID)
						continue
					}
					kinds[ev.FID] = ev.Kind
					for _, pl := range r.Reallocated {
						reallocated[pl.FID] = true
					}
				}
				cacheCount, cacheRealloc := 0, 0
				var totals []float64
				for fid, k := range kinds {
					if k != workload.KindCache {
						continue
					}
					cacheCount++
					if reallocated[fid] {
						cacheRealloc++
					}
					if app, ok := a.App(fid); ok {
						totals = append(totals, float64(app.TotalBlocks()))
					}
				}
				agg.util = append(agg.util, a.Utilization())
				if cacheCount > 0 {
					agg.reallocFrac = append(agg.reallocFrac, float64(cacheRealloc)/float64(cacheCount))
				}
				agg.jain = append(agg.jain, stats.JainIndex(totals))
				if arrivals > 0 {
					agg.failRate = append(agg.failRate, float64(fails)/float64(arrivals))
				}
			}
		}
		// A fixed metric order (fig11Metrics) keeps the CSV byte-identical
		// run to run.
		for i, vals := range [][]float64{agg.util, agg.reallocFrac, agg.jain, agg.failRate} {
			metric := fig11Metrics[i]
			s := stats.Summarize(vals)
			fmt.Fprintf(&b, "%s,%s,%g,%g,%g,%g\n", sc, metric, s.P25, s.P50, s.P75, s.Mean)
			res.Metrics[fmt.Sprintf("%s_%s_median", sc, metric)] = s.P50
			res.Metrics[fmt.Sprintf("%s_%s_mean", sc, metric)] = s.Mean
		}
	}
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		fmt.Sprintf("failure rate (mean): wf %s, ff %s, bf %s, realloc %s",
			fmtF(res.Metrics["wf_failrate_mean"]), fmtF(res.Metrics["ff_failrate_mean"]),
			fmtF(res.Metrics["bf_failrate_mean"]), fmtF(res.Metrics["realloc_failrate_mean"])),
		fmt.Sprintf("utilization (median): wf %s, ff %s, bf %s, realloc %s",
			fmtF(res.Metrics["wf_utilization_median"]), fmtF(res.Metrics["ff_utilization_median"]),
			fmtF(res.Metrics["bf_utilization_median"]), fmtF(res.Metrics["realloc_utilization_median"])))
	return res, nil
}

// fig11Metrics is the per-scheme row order of the fig11 CSV.
var fig11Metrics = [...]string{"utilization", "realloc", "fairness", "failrate"}

func runFig12(cfg RunConfig) (*Result, error) {
	n := 100
	if cfg.Quick {
		n = 50
	}
	grans := []int{128, 256, 512, 1024} // words: 512B, 1KB, 2KB, 4KB
	mixes := []string{"cache", "hh", "lb", "mixed"}
	res := &Result{ID: "fig12", Title: "total allocation time (ms) for 100 arrivals vs. granularity", Metrics: map[string]float64{}}

	var b strings.Builder
	b.WriteString("granularity_bytes")
	for _, m := range mixes {
		fmt.Fprintf(&b, ",%s_ms", m)
	}
	b.WriteString("\n")
	for _, g := range grans {
		fmt.Fprintf(&b, "%d", g*4)
		for _, mix := range mixes {
			a := allocatorWith(alloc.MostConstrained, alloc.WorstFit, g)
			seq := workload.NewSequence(cfg.Seed + 12)
			start := time.Now()
			for i := 0; i < n; i++ {
				var kind workload.AppKind
				switch mix {
				case "cache":
					kind = workload.KindCache
				case "hh":
					kind = workload.KindHeavyHitter
				case "lb":
					kind = workload.KindLoadBalancer
				default:
					kind = seq.Arrival().Kind
				}
				_, _ = a.Allocate(uint16(i+1), serviceConstraints(kind))
			}
			ms := time.Since(start).Seconds() * 1e3
			fmt.Fprintf(&b, ",%.3f", ms)
			res.Metrics[fmt.Sprintf("%s_%dB_ms", mix, g*4)] = ms
		}
		b.WriteString("\n")
	}
	res.CSV = b.String()
	res.Notes = append(res.Notes,
		"finer granularity means more blocks per stage and a more complex layout computation",
		"the absolute impact varies by application mix, as in the paper")
	return res, nil
}
