package harness

import (
	"strings"
	"testing"
)

func TestMeasureTakeover(t *testing.T) {
	r, err := MeasureTakeover("mtrt", 0.5, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.KillAfter < 1 {
		t.Fatalf("kill point = %d", r.KillAfter)
	}
	if r.ColdTakeover <= 0 || r.WarmTakeover < 0 {
		t.Fatalf("takeover times: cold %v warm %v", r.ColdTakeover, r.WarmTakeover)
	}
	report := TakeoverReport([]*TakeoverResult{r})
	if !strings.Contains(report, "mtrt") || !strings.Contains(report, "cold takeover") {
		t.Fatalf("report:\n%s", report)
	}
	t.Logf("\n%s", report)
}
