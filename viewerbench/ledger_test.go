package main

import (
	"testing"
)

// ledgerTolerance is how far the layers' self times plus the clock
// residual may stray from the traced run's wall total.
const ledgerTolerance = 0.001

func TestLedgerReconciles(t *testing.T) {
	wl, _ := workloadByName("lecture_unicast")
	p := wl.plan(5)
	p.sessions = p.sessions[:24]
	p.congested = p.congested[:24]
	w, err := buildWorld(p, true)
	if err != nil {
		t.Fatal(err)
	}
	o := w.run()
	for _, f := range o.failures {
		t.Errorf("check failed: %s", f)
	}
	l := o.ledger

	// Recompute every kind's self time from the raw span records alone
	// (parent links and intervals), independently of the tracer's running
	// accounting, over the spans of the timed phase.
	spans := w.tr.spans[:l.spans]
	childTime := make([]int64, len(spans))
	for i, sp := range spans {
		if sp.end < sp.start {
			t.Fatalf("span %d (%s) ends before it starts", i, spanNames[sp.kind])
		}
		if sp.parent >= 0 {
			par := spans[sp.parent]
			if sp.start < par.start || sp.end > par.end {
				t.Fatalf("span %d (%s) escapes its parent %d (%s)", i, spanNames[sp.kind], sp.parent, spanNames[par.kind])
			}
			childTime[sp.parent] += sp.end - sp.start
		}
	}
	var self [numSpanKinds]int64
	var sum int64
	for i, sp := range spans {
		s := sp.end - sp.start - childTime[i]
		self[sp.kind] += s
		sum += s
	}
	if self != l.self {
		t.Errorf("self times from raw spans %v differ from the tracer's %v", self, l.self)
	}

	res := l.residual()
	if res <= 0 || res >= l.wall {
		t.Fatalf("clock residual %d ns outside (0, wall %d ns)", res, l.wall)
	}
	total := sum + res
	if d := float64(total-l.wall) / float64(l.wall); d > ledgerTolerance || d < -ledgerTolerance {
		t.Errorf("self times %d + residual %d = %d ns, wall %d ns: off by %.4f%%", sum, res, total, l.wall, 100*d)
	}
	for _, k := range []spanKind{spServerTimer, spPlayoutTimer, spClientMedia, spServerCtrl, spClientCtrl, spNetSend, spScript} {
		if l.count[k] == 0 || l.self[k] <= 0 {
			t.Errorf("layer %s recorded no work (%d spans, %d ns)", spanNames[k], l.count[k], l.self[k])
		}
	}
	t.Logf("wall %.1f ms: spans %.1f ms, residual %.1f ms over %d events", float64(l.wall)/1e6, float64(sum)/1e6, float64(res)/1e6, l.fired)
}
