package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestQuickModeReproducible runs every registered experiment twice in quick
// mode at seed 1 and requires identical CSV bytes and metrics — the
// mechanical "same behaviour" proof for refactors of the code the figures
// run. Experiments that declare wall-clock output differ run to run by
// design; for those only the CSV header and row count must agree.
func TestQuickModeReproducible(t *testing.T) {
	cfg := RunConfig{Quick: true, Seed: 1}
	for _, spec := range Registry {
		a, err := spec.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		b, err := spec.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		if spec.WallClock {
			ha, _, _ := strings.Cut(a.CSV, "\n")
			hb, _, _ := strings.Cut(b.CSV, "\n")
			if ha != hb || strings.Count(a.CSV, "\n") != strings.Count(b.CSV, "\n") {
				t.Errorf("%s: CSV shape differs between runs: %q/%d rows vs %q/%d rows", spec.ID,
					ha, strings.Count(a.CSV, "\n"), hb, strings.Count(b.CSV, "\n"))
			}
			continue
		}
		if a.CSV != b.CSV {
			t.Errorf("%s: CSV differs between identical runs", spec.ID)
		}
		if !reflect.DeepEqual(a.Metrics, b.Metrics) {
			t.Errorf("%s: metrics differ between identical runs:\n%v\n%v", spec.ID, a.Metrics, b.Metrics)
		}
	}
}
