package main

import (
	"bytes"
	"testing"
)

// TestExperimentScenarioOutputReproducible renders the experiment-backed
// scenarios (-scenario multi and -scenario churn) twice at one seed and
// requires byte-identical output: metrics print in sorted order, not in
// map iteration order.
func TestExperimentScenarioOutputReproducible(t *testing.T) {
	for _, id := range []string{"fig9b", "fig8a"} {
		var a, b bytes.Buffer
		if err := writeExperiment(&a, id, 3); err != nil {
			t.Fatal(err)
		}
		if err := writeExperiment(&b, id, 3); err != nil {
			t.Fatal(err)
		}
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: output differs between identical runs:\n%s\n---\n%s", id, a.String(), b.String())
		}
	}
}
