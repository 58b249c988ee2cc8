package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// smallPlan trims a workload to its first n sessions, arriving 400 ms
// apart, and swaps every lesson for a single-stream video lesson. Same-seed
// replay of such a world is exact today, so any difference between a probed
// and an unprobed run is the probes' doing. (With several streams per
// lesson it is not: senders started at one instant go out in map order, so
// packets sharing an instant reach the network in varying order and draw
// different loss and jitter; the benchmark reports that divergence as
// sim.replay_divergence_frames.) Churn sessions cycle through every act.
func smallPlan(t *testing.T, workload string, n int) *plan {
	t.Helper()
	wl, ok := workloadByName(workload)
	if !ok {
		t.Fatalf("no workload %s", workload)
	}
	p := wl.plan(11)
	for i := range p.lessons {
		l := &p.lessons[i]
		id := l.name + "v"
		l.src = fmt.Sprintf("<TITLE>%s</TITLE>\n<VI SOURCE=vi/%s ID=%s STARTIME=0 DURATION=3> </VI>\n", l.name, id, id)
		l.streams = map[string]bool{id: true}
		l.timed = []string{id}
		l.length = 3 * time.Second
	}
	p.sessions = p.sessions[:n]
	if p.congested != nil {
		p.congested = p.congested[:n]
	}
	acts := []action{actPause, actReload, actLink, actNone}
	for i := range p.sessions {
		s := &p.sessions[i]
		s.at = time.Duration(i) * 400 * time.Millisecond
		s.lesson = 0
		if workload == "session_churn" {
			s.act = acts[i%len(acts)]
			s.linkLesson = 1
		}
	}
	return p
}

// playoutReports renders every browser's final playout report.
func playoutReports(w *world) []string {
	var out []string
	for _, s := range w.sess {
		if p := s.c.Player(); p != nil {
			rep := p.Report()
			skew := map[string][]float64{}
			for g, smp := range rep.Skew {
				skew[g] = smp.Values()
			}
			out = append(out, fmt.Sprint(rep.Streams, skew))
		}
	}
	return out
}

func runWorld(t *testing.T, p *plan, traced bool) (*world, *outcome) {
	t.Helper()
	w, err := buildWorld(p, traced)
	if err != nil {
		t.Fatal(err)
	}
	o := w.run()
	for _, f := range o.failures {
		t.Errorf("check failed: %s", f)
	}
	return w, o
}

func TestProbesAreTransparent(t *testing.T) {
	for _, tc := range []struct {
		workload string
		n        int
	}{
		{"lecture_unicast", 3},
		{"hot_lesson_fanout", 4}, // shared flows: the MultiSender path must survive probing
		{"session_churn", 4},     // pause, reload, cross-server link, plain
	} {
		t.Run(tc.workload, func(t *testing.T) {
			p := smallPlan(t, tc.workload, tc.n)
			plain, po := runWorld(t, p, false)
			probed, qo := runWorld(t, p, true)
			if po.digest != qo.digest {
				t.Errorf("delivery digest: unprobed %x, probed %x", po.digest, qo.digest)
			}
			if po.fired != qo.fired {
				t.Errorf("fired events: unprobed %d, probed %d", po.fired, qo.fired)
			}
			a, b := playoutReports(plain), playoutReports(probed)
			if len(a) != tc.n || fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("playout reports differ:\nunprobed %v\nprobed   %v", a, b)
			}
			if po.plays == 0 {
				t.Error("no frame presented")
			}
			l := qo.ledger
			if l.count[spServerTimer] == 0 || l.count[spClientMedia] == 0 || l.count[spPlayoutTimer] == 0 {
				t.Errorf("probes recorded no server timers, client media or playout ticks: %v", l.count)
			}
			if p.servers[0].opts.SharedFlows && l.count[spNetSendMulti] == 0 {
				t.Error("shared flows sent no SendMulti through the probe: the fan-out path was lost")
			}
		})
	}
}

func TestProbeNetKeepsMultiSender(t *testing.T) {
	tr := newTracer()
	nt := newProbeNet(netsim.New(clock.NewSim(), 1), tr, nil)
	if _, ok := nt.(netsim.MultiSender); !ok {
		t.Fatal("probe over *netsim.Network lost MultiSender")
	}
	if _, ok := newProbeNet(sendOnly{}, tr, nil).(netsim.MultiSender); ok {
		t.Fatal("probe over a plain Net must not claim MultiSender")
	}
}

// sendOnly is a transport without one-transmission fan-out.
type sendOnly struct{}

func (sendOnly) Send(netsim.Packet) error                 { return nil }
func (sendOnly) Listen(netsim.Addr, netsim.Handler) error { return nil }
