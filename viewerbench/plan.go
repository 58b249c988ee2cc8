package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/stats"
)

// action is what a session does to its presentation before it ends.
type action int

const (
	actNone   action = iota
	actPause         // pause, then resume after pauseFor
	actReload        // restart the lesson from its beginning
	actLink          // cross-server hyperlink: suspend here, view a lesson there
)

// pauseFor is how long a pausing viewer holds the presentation.
const pauseFor = 400 * time.Millisecond

// lessonSpec is one stored lesson.
type lessonSpec struct {
	name   string
	src    string
	length time.Duration
	// streams holds every stream ID of the lesson; a frame whose stream is
	// not here was delivered to the wrong viewer.
	streams map[string]bool
	// timed lists the time-sensitive (audio/video) stream IDs.
	timed []string
}

// serverSpec is one multimedia server of the campus.
type serverSpec struct {
	name string
	opts server.Options
}

// sessionSpec is one viewer visit: a browser arriving open loop at at,
// connecting to server, viewing lesson, and optionally acting on it.
type sessionSpec struct {
	host   string
	user   string
	at     time.Duration
	server int
	lesson int
	// browse asks for the topic list first; search also runs a federated
	// content search.
	browse, search bool
	act            action
	// actAfter is the act's offset from the doc request.
	actAfter time.Duration
	// linkLesson is the lesson the cross-server hyperlink leads to.
	linkLesson int
}

// plan is a workload's complete input, generated from the seed alone.
type plan struct {
	workload string
	seed     uint64
	lessons  []lessonSpec
	servers  []serverSpec
	sessions []sessionSpec
	link     netsim.LinkConfig
	// congestion, when set, is applied to the media path of every session
	// with congested[i], starting congestAfter past its arrival.
	congestion   *netsim.Phase
	congested    []bool
	congestAfter time.Duration
	// window is the arrival window; the live heap is sampled at its end,
	// when the most sessions are in flight.
	window time.Duration
	// drain is the virtual time run after the last session ends, long
	// enough for suspended sessions to expire and every packet to land.
	drain time.Duration
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	name string
	why  string
	plan func(seed uint64) *plan
}

// workloads are the benchmark's traffic mixes, all drawn from the paper's
// Hermes campus. BENCHMARK.json lists the same names and reasons.
var workloads = []workloadSpec{
	{
		name: "lecture_unicast",
		why:  "~60 concurrent viewers on distinct lessons over a lossy, jittery path: per-viewer emit, unreliable netsim path, QoS grading and skew control all work",
		plan: lectureUnicast,
	},
	{
		name: "hot_lesson_fanout",
		why:  "240 joins on 6 Zipf-popular lessons with shared flows on a clean LAN: one encode serves many, so netsim fan-out and the client side dominate",
		plan: hotLessonFanout,
	},
	{
		name: "session_churn",
		why:  "400 short sessions across two peered servers with redirects, browsing, pause, reload and suspend: control, admission and set-up/teardown dominate",
		plan: sessionChurn,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// lesson builds a lesson with an AU_VI clip of avLen seconds and the given
// number of slides splitting that time. Stream IDs carry the lesson name,
// so every frame's payload tag says which lesson it belongs to.
func lesson(name string, avLen, slides int) lessonSpec {
	var b strings.Builder
	fmt.Fprintf(&b, "<TITLE>%s</TITLE>\n<TEXT>lesson %s of the campus course</TEXT>\n", name, name)
	streams := map[string]bool{}
	per := avLen / slides
	for i := 0; i < slides; i++ {
		id := fmt.Sprintf("%ss%d", name, i)
		fmt.Fprintf(&b, "<IMG SOURCE=img/%s ID=%s STARTIME=%d DURATION=%d WIDTH=320 HEIGHT=240 WHERE=\"0,0\"> </IMG>\n",
			id, id, i*per, per)
		streams[id] = true
	}
	au, vi := name+"a", name+"v"
	fmt.Fprintf(&b, "<AU_VI SOURCE=au/%s SOURCE=vi/%s ID=%s ID=%s STARTIME=0 DURATION=%d> </AU_VI>\n",
		au, vi, au, vi, avLen)
	streams[au], streams[vi] = true, true
	return lessonSpec{
		name:    name,
		src:     b.String(),
		length:  time.Duration(avLen) * time.Second,
		streams: streams,
		timed:   []string{au, vi},
	}
}

func lessons(prefix string, n, avLen, slides int) []lessonSpec {
	out := make([]lessonSpec, n)
	for i := range out {
		out[i] = lesson(fmt.Sprintf("%s%02d", prefix, i), avLen, slides)
	}
	return out
}

// campusServer is a server with the given admission capacity (bits/s).
// Every workload sizes it above its peak demand: load comes from arrivals,
// never from refusals.
func campusServer(name string, capacity float64) serverSpec {
	return serverSpec{name: name, opts: server.Options{Capacity: capacity}}
}

func viewers(p *plan, at []time.Duration) {
	p.sessions = make([]sessionSpec, len(at))
	for i := range at {
		p.sessions[i] = sessionSpec{
			host: fmt.Sprintf("v%03d", i),
			user: fmt.Sprintf("student%03d", i),
			at:   at[i],
		}
	}
}

// lectureUnicast: 240 sessions over 30 s of 6 s lessons keep about 60
// viewers in flight, each on its own lesson with private senders. A quarter
// of them meet a congestion episode shortly after joining.
func lectureUnicast(seed uint64) *plan {
	rng := stats.NewRNG(seed)
	p := &plan{
		workload: "lecture_unicast",
		seed:     seed,
		lessons:  lessons("lec", 64, 6, 2),
		servers:  []serverSpec{campusServer("hermes", 1e9)},
		link: netsim.LinkConfig{
			Bandwidth: 10_000_000, Delay: 8 * time.Millisecond,
			Jitter: 12 * time.Millisecond, Loss: 0.01,
		},
		congestion: &netsim.Phase{
			Duration: 5 * time.Second, LossFactor: 10,
			ExtraDelay: 20 * time.Millisecond, ExtraJitter: 20 * time.Millisecond,
			BandwidthFactor: 0.5,
		},
		congestAfter: 2 * time.Second,
		window:       30 * time.Second,
		drain:        5 * time.Second,
	}
	viewers(p, arrivals(rng, 240, p.window))
	p.congested = make([]bool, len(p.sessions))
	for i := range p.sessions {
		p.sessions[i].lesson = i % len(p.lessons)
		p.congested[i] = rng.Bool(0.25)
	}
	return p
}

// hotLessonFanout: 240 joins over 30 s onto 6 lessons of 10 s with Zipf
// demand, shared flows on, clean LAN. Most joins land on a flow already
// running and take the catch-up path.
func hotLessonFanout(seed uint64) *plan {
	rng := stats.NewRNG(seed)
	srv := campusServer("hermes", 1e9)
	srv.opts.SharedFlows = true
	p := &plan{
		workload: "hot_lesson_fanout",
		seed:     seed,
		lessons:  lessons("hot", 6, 10, 1),
		servers:  []serverSpec{srv},
		link: netsim.LinkConfig{
			Bandwidth: 10_000_000, Delay: 5 * time.Millisecond,
			Jitter: 2 * time.Millisecond,
		},
		window: 30 * time.Second,
		drain:  5 * time.Second,
	}
	viewers(p, arrivals(rng, 240, p.window))
	demand := zipfDemand(rng, len(p.sessions), len(p.lessons), 1.1)
	for i := range p.sessions {
		p.sessions[i].lesson = demand[i]
	}
	return p
}

// sessionChurn: 400 short sessions over 40 s, 70% aimed at hermes-a whose
// session watermark redirects the overflow to hermes-b. Both servers hold
// every lesson, so no session should be refused.
func sessionChurn(seed uint64) *plan {
	rng := stats.NewRNG(seed)
	a, b := campusServer("hermes-a", 2e8), campusServer("hermes-b", 2e8)
	a.opts.SessionWatermark = 16
	a.opts.Grace = 2 * time.Second
	b.opts.Grace = 2 * time.Second
	p := &plan{
		workload: "session_churn",
		seed:     seed,
		lessons:  lessons("brief", 16, 2, 1),
		servers:  []serverSpec{a, b},
		link:     netsim.DefaultLAN(),
		window:   40 * time.Second,
		drain:    8 * time.Second,
	}
	viewers(p, arrivals(rng, 400, p.window))
	for i := range p.sessions {
		s := &p.sessions[i]
		if !rng.Bool(0.7) {
			s.server = 1
		}
		s.lesson = rng.Intn(len(p.lessons))
		s.browse = rng.Bool(0.8)
		s.search = s.browse && rng.Bool(0.3)
		s.actAfter = 1500 * time.Millisecond
		switch u := rng.Float64(); {
		case u < 0.25:
			s.act = actPause
		case u < 0.40:
			s.act = actReload
		case u < 0.55:
			s.act = actLink
			s.linkLesson = rng.Intn(len(p.lessons))
		}
	}
	return p
}
