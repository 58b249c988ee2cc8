package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{50000, 99, true},
	} {
		got, ok := supportedPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("supportedPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := float64(tc.n) * (100 - got) / 100; beyond < 10-1e-9 {
				t.Errorf("n=%d: p%v keeps only %.1f samples beyond it", tc.n, got, beyond)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 25: 2, 50: 3, 90: 4.6, 100: 5} {
		if got := percentile(append([]float64(nil), xs...), p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestArrivalsAreSeededAndOpenLoop(t *testing.T) {
	const n = 240
	window := 30 * time.Second
	a := arrivals(stats.NewRNG(7), n, window)
	b := arrivals(stats.NewRNG(7), n, window)
	c := arrivals(stats.NewRNG(8), n, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("arrivals not in time order")
	}
	slot := window / n
	for i, at := range a {
		if at < time.Duration(i)*slot || at >= time.Duration(i+1)*slot+1 {
			t.Fatalf("arrival %d at %v outside its slot", i, at)
		}
	}
}

func TestZipfDemand(t *testing.T) {
	a := zipfDemand(stats.NewRNG(1), 240, 6, 1.1)
	b := zipfDemand(stats.NewRNG(2), 240, 6, 1.1)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds gave the same join order")
	}
	count := func(xs []int) []int {
		c := make([]int, 6)
		for _, x := range xs {
			c[x]++
		}
		return c
	}
	ca, cb := count(a), count(b)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("shares differ across seeds: %v vs %v", ca, cb)
	}
	total := 0
	for i, c := range ca {
		total += c
		if i > 0 && c > ca[i-1] {
			t.Fatalf("shares not Zipf-ordered: %v", ca)
		}
	}
	if total != 240 || ca[0] < 2*ca[5] {
		t.Fatalf("shares %v do not follow Zipf(1.1) over 240 requests", ca)
	}
}

func TestPlansAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := wl.plan(3), wl.plan(3), wl.plan(4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different inputs", wl.name)
		}
		if reflect.DeepEqual(a.sessions, c.sessions) {
			t.Errorf("%s: different seeds gave the same sessions", wl.name)
		}
		if pct, ok := supportedPercentile(len(a.sessions)); !ok || pct < 95 {
			t.Errorf("%s: %d sessions cannot support the reported p95", wl.name, len(a.sessions))
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the names are checked in.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestNamesAndCatalog(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(declared, units) {
		t.Errorf("BENCHMARK.json metrics %v\ndiffer from the catalog %v", declared, units)
	}
	for name := range units {
		if !valid.MatchString(name) {
			t.Errorf("metric name %q uses characters outside letters, digits, _ . -", name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q uses characters outside letters, digits, _ . -", w.name)
		}
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}

	// Both result shapes report exactly their half of the catalog.
	o := &outcome{wall: time.Second, plays: 1}
	e2e := o.endToEnd()
	e2e["setup_s"] = 0
	per := o.layers()
	for k, v := range o.runtimeLayer() {
		per[k] = v
	}
	for _, k := range []string{"setup.store_ms", "setup.servers_ms", "setup.browsers_ms", "trace.overhead_pct", "sim.replay_divergence_frames"} {
		per[k] = 0
	}
	for _, m := range bf.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is never reported", m.Name)
		}
	}
	for _, m := range bf.PerLayer {
		if _, ok := per[m.Name]; !ok {
			t.Errorf("per-layer metric %s is never reported", m.Name)
		}
	}
	if len(e2e) != len(bf.EndToEnd) || len(per) != len(bf.PerLayer) {
		t.Errorf("reported %d end-to-end and %d per-layer metrics, BENCHMARK.json declares %d and %d",
			len(e2e), len(per), len(bf.EndToEnd), len(bf.PerLayer))
	}
}
