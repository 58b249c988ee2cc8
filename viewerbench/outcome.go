package main

import (
	"time"
)

// outcome is everything one episode measured.
type outcome struct {
	setup setupTimes
	wall  time.Duration // timed phase, tracing off unless ledger is set

	completed, failed int
	plays, holds      int
	gaps, expected    int // time-sensitive streams only
	framesCompleted   int // frames reassembled by the browsers
	staleFrames       int // ... of a lesson the browser had already left

	startupMS, connectMS, skewMS, latenessMS []float64
	inSync                                   int // skew samples within lipSyncMS

	degraded, streamTime time.Duration
	qosActions           int
	admDecisions         int64
	utilPeak             float64

	underflows, dups, bufDrops, stale int

	mallocs  uint64
	liveHeap uint64
	gcCount  int
	gcPause  time.Duration
	fired    uint64
	digest   uint64 // netsim's replay fingerprint of every delivery

	// Traced episodes only.
	ledger              ledger
	netSent, netDropped int
	netBytes            int64
	delayP99            float64
	lockAcqs            int64
	lockWaitP99         time.Duration
	encodes, delivered  int64

	failures []string
}

// ledger is the tracer's per-layer accounting over the timed phase.
type ledger struct {
	self, count [numSpanKinds]int64
	armed       [numSpanKinds]int64
	topLevel    int64
	dests       int64
	spans       int
	wall        int64  // wall time of the timed phase
	fired       uint64 // clock events fired in it
}

// residual is the wall time no layer span claimed: the clock's own event
// dispatch plus netsim's delivery bookkeeping between handlers.
func (l ledger) residual() int64 { return l.wall - l.topLevel }

func (t *tracer) snapshot() ledger {
	return ledger{
		self: t.self, count: t.count, armed: t.armed,
		topLevel: t.topLevel, dests: t.dests, spans: len(t.spans),
	}
}

// sessions is the number of sessions attempted.
func (o *outcome) sessions() int { return o.completed + o.failed }

// endToEnd computes the end-to-end metrics of one untraced episode.
func (o *outcome) endToEnd() map[string]float64 {
	wallS := o.wall.Seconds()
	m := map[string]float64{
		"frames_per_s":     float64(o.plays) / wallS,
		"sessions_per_s":   float64(o.completed) / wallS,
		"allocs_per_frame": float64(o.mallocs) / float64(max(o.plays, 1)),
		"live_heap_mb":     float64(o.liveHeap) / (1 << 20),
		"startup_p50_ms":   percentile(o.startupMS, 50),
		"startup_p95_ms":   percentile(o.startupMS, 95),
		"connect_p50_ms":   percentile(o.connectMS, 50),
		"connect_p95_ms":   percentile(o.connectMS, 95),
		"lip_sync_pct":     100 * ratio(float64(o.inSync), float64(len(o.skewMS))),
		"continuity_pct":   100 * (1 - ratio(float64(o.gaps), float64(o.expected))),
		"top_quality_pct":  100 * (1 - ratio(float64(o.degraded), float64(o.streamTime))),
		"served_pct":       100 * ratio(float64(o.completed), float64(o.sessions())),
	}
	return m
}

// runtimeLayer is the runtime's per-layer view of one untraced episode.
func (o *outcome) runtimeLayer() map[string]float64 {
	return map[string]float64{
		"runtime.gc_count":    float64(o.gcCount),
		"runtime.gc_pause_ms": ms(o.gcPause),
	}
}

// layers computes the per-layer metrics of a traced episode.
func (o *outcome) layers() map[string]float64 {
	l := o.ledger
	frames := float64(max(o.plays, 1))
	sessions := float64(max(o.sessions(), 1))
	perK := 1000 / frames
	var armed int64
	for _, a := range l.armed {
		armed += a
	}
	sends := l.count[spNetSend] + l.count[spNetSendMulti]
	pkts := l.count[spNetSend] + l.dests
	return map[string]float64{
		"clock.events_per_frame":              float64(l.fired) / frames,
		"clock.timers_armed_per_frame":        float64(armed) / frames,
		"clock.dispatch_ns_per_event":         ratio(float64(l.residual()), float64(l.fired)),
		"netsim.send_ns_per_pkt":              ratio(float64(l.self[spNetSend]+l.self[spNetSendMulti]), float64(pkts)),
		"netsim.sends_per_frame":              float64(sends) / frames,
		"netsim.fanout_dests_per_send":        ratio(float64(pkts), float64(sends)),
		"netsim.wire_bytes_per_frame":         float64(o.netBytes) / frames,
		"netsim.drop_pct":                     100 * ratio(float64(o.netDropped), float64(o.netSent)),
		"netsim.delay_p99_ms":                 o.delayP99,
		"server.emit_ns_per_frame":            float64(l.self[spServerTimer]) / frames,
		"server.encodes_per_delivered":        ratio(float64(o.encodes), float64(o.delivered)),
		"server.ctrl_ns_per_req":              ratio(float64(l.self[spServerCtrl]), float64(l.count[spServerCtrl])),
		"server.ctrl_reqs_per_session":        float64(l.count[spServerCtrl]) / sessions,
		"server.lock_acqs_per_session":        float64(o.lockAcqs) / sessions,
		"server.lock_wait_p99_us":             float64(o.lockWaitP99) / float64(time.Microsecond),
		"client.recv_ns_per_pkt":              ratio(float64(l.self[spClientMedia]), float64(l.count[spClientMedia])),
		"client.frames_completed_pct":         100 * ratio(float64(o.framesCompleted), float64(o.delivered)),
		"client.stale_lesson_frames":          float64(o.staleFrames),
		"client.ctrl_ns_per_msg":              ratio(float64(l.self[spClientCtrl]), float64(l.count[spClientCtrl])),
		"playout.tick_ns_per_frame":           float64(l.self[spPlayoutTimer]) / frames,
		"playout.holds_per_1k":                float64(o.holds) * perK,
		"playout.lateness_p99_ms":             percentile(o.latenessMS, 99),
		"playout.skew_p95_ms":                 percentile(o.skewMS, 95),
		"buffer.underflows_per_1k":            float64(o.underflows) * perK,
		"buffer.dups_per_1k":                  float64(o.dups) * perK,
		"buffer.drops_per_1k":                 float64(o.bufDrops) * perK,
		"buffer.stale_per_1k":                 float64(o.stale) * perK,
		"qos.actions_per_session":             float64(o.qosActions) / sessions,
		"qos.admission_decisions_per_session": float64(o.admDecisions) / sessions,
		"qos.utilization_peak":                o.utilPeak,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
