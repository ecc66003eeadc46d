package main

import (
	"strings"
	"testing"
)

// With no workloads there are no statistics to report, so xbar-sim
// must refuse -samples below 1 with a usage error before it solves
// anything.
func TestRejectsTooFewSamples(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		err := run([]string{"-size", "4", "-samples", n})
		if err == nil || !strings.Contains(err.Error(), "need at least 1") {
			t.Errorf("-samples %s: err = %v, want a usage error", n, err)
		}
	}
}
