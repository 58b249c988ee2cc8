package server

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/clock"
	"repro/internal/hml"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
)

// faultHarness is the direct-server harness with telemetry attached and
// request-ID framing on both directions.
type faultHarness struct {
	clk     *clock.Virtual
	net     *netsim.Network
	scope   *obs.Scope
	srv     *Server
	replies []struct {
		mt    protocol.MsgType
		reqID uint32
		body  []byte
	}
}

func newFaultHarness(t *testing.T, opts Options) *faultHarness {
	t.Helper()
	clk := clock.NewSim()
	net := netsim.New(clk, 1)
	scope := obs.NewScope(clk)
	opts.Obs = scope
	users := auth.NewDB()
	users.Subscribe(auth.User{Name: "u", Password: "p", Email: "u@x", Class: qos.Standard}, clk.Now())
	db := NewDatabase()
	db.Put("doc", hml.Figure2Source, "")
	h := &faultHarness{clk: clk, net: net, scope: scope}
	srv, err := New("srv", clk, net, users, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	h.srv = srv
	net.Listen(fakeClient, func(p netsim.Packet) {
		mt, reqID, body, err := protocol.DecodeReq(p.Payload)
		if err == nil {
			// body views p.Payload, which the simulator recycles after this
			// handler returns: keep a copy.
			h.replies = append(h.replies, struct {
				mt    protocol.MsgType
				reqID uint32
				body  []byte
			}{mt, reqID, append([]byte(nil), body...)})
		}
	})
	return h
}

func (h *faultHarness) sendReq(reqID uint32, t protocol.MsgType, body interface{}) {
	h.net.Send(netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload: protocol.MustEncodeReq(t, reqID, body), Reliable: true,
	})
	h.clk.RunFor(time.Second)
}

func (h *faultHarness) lastReply(t *testing.T, want protocol.MsgType, out interface{}) {
	t.Helper()
	for i := len(h.replies) - 1; i >= 0; i-- {
		if h.replies[i].mt == want {
			if err := protocol.DecodeBody(h.replies[i].body, out); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no %v reply among %d replies", want, len(h.replies))
}

func (h *faultHarness) connectAndPlay(t *testing.T) {
	t.Helper()
	h.sendReq(1, protocol.MsgConnect, protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK {
		t.Fatalf("connect = %+v", cr)
	}
	h.sendReq(2, protocol.MsgDocRequest, protocol.DocRequest{Name: "doc", MediaPortBase: 9000, WindowMS: 300})
	var dr protocol.DocResponse
	h.lastReply(t, protocol.MsgDocResponse, &dr)
	if !dr.OK {
		t.Fatalf("doc = %+v", dr)
	}
}

// The suspend → grace-expiry path must give the reserved admission
// bandwidth back to the pool and close the session.
func TestSuspendGraceExpiryReleasesAdmission(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: 2 * time.Second})
	h.connectAndPlay(t)
	if h.srv.Admission().Reserved() == 0 {
		t.Fatal("no admission reservation after connect")
	}
	h.sendReq(3, protocol.MsgSuspend, protocol.Suspend{})
	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil || !sess.suspended {
		unlock()
		t.Fatal("session not suspended")
	}
	snds := sess.senders
	unlock()
	for _, snd := range snds {
		if !snd.isPaused() {
			t.Fatalf("sender %s not paused while suspended", snd.stream.ID)
		}
	}
	h.clk.RunFor(3 * time.Second) // grace (2s) runs out
	if n := h.srv.Sessions(); n != 0 {
		t.Fatalf("sessions after grace expiry = %d, want 0", n)
	}
	if r := h.srv.Admission().Reserved(); r != 0 {
		t.Fatalf("reserved after grace expiry = %v, want 0", r)
	}
}

// Resuming before the grace deadline must restore every paused sender and
// keep the admission reservation intact.
func TestResumeBeforeExpiryRestoresSenders(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: 10 * time.Second})
	h.connectAndPlay(t)
	reserved := h.srv.Admission().Reserved()
	h.sendReq(3, protocol.MsgSuspend, protocol.Suspend{})
	var sr protocol.SuspendResult
	h.lastReply(t, protocol.MsgSuspendResult, &sr)
	if !sr.OK || sr.ResumeToken == "" {
		t.Fatalf("suspend = %+v", sr)
	}
	// The user returns from a different address within the grace window.
	const cl2 = netsim.Addr("fake2:6000")
	h.net.Send(netsim.Packet{
		From: cl2, To: netsim.MakeAddr("srv", ControlPort),
		Payload: protocol.MustEncodeReq(protocol.MsgConnect, 4,
			protocol.Connect{User: "u", ResumeToken: sr.ResumeToken}),
		Reliable: true,
	})
	h.clk.RunFor(time.Second)
	sess, unlock := h.srv.lockedSession(cl2)
	if sess == nil || sess.suspended {
		unlock()
		t.Fatalf("session not reattached to %s", cl2)
	}
	if len(sess.senders) == 0 {
		unlock()
		t.Fatal("no senders survived the suspend/resume cycle")
	}
	snds := sess.senders
	unlock()
	for _, snd := range snds {
		if snd.isPaused() {
			t.Fatalf("sender %s still paused after resume", snd.stream.ID)
		}
	}
	if r := h.srv.Admission().Reserved(); r != reserved {
		t.Fatalf("reserved changed across suspend/resume: %v → %v", reserved, r)
	}
	// The old grace timer must not fire later and kill the resumed session.
	h.clk.RunFor(15 * time.Second)
	if n := h.srv.Sessions(); n != 1 {
		t.Fatalf("sessions after resumed run = %d, want 1", n)
	}
}

// A client that heartbeats and then goes silent is auto-suspended by the
// liveness sweep, and the normal grace expiry closes it afterwards.
func TestLivenessSweepAutoSuspendsSilentClient(t *testing.T) {
	h := newFaultHarness(t, Options{
		Grace: 5 * time.Second, HeartbeatEvery: time.Second, LivenessMisses: 3,
	})
	h.connectAndPlay(t)
	h.net.Send(netsim.Packet{
		From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
		Payload:  protocol.MustEncode(protocol.MsgHeartbeat, protocol.Heartbeat{}),
		Reliable: true,
	})
	h.clk.RunFor(time.Second)
	var ack protocol.HeartbeatAck
	h.lastReply(t, protocol.MsgHeartbeatAck, &ack)
	if !ack.OK {
		t.Fatalf("heartbeat ack = %+v", ack)
	}
	// Silence: past the miss budget the sweep suspends the session.
	h.clk.RunFor(5 * time.Second)
	sess, unlock := h.srv.lockedSession(fakeClient)
	suspended := sess != nil && sess.suspended
	unlock()
	if !suspended {
		t.Fatal("silent session not auto-suspended")
	}
	if got := h.scope.Counter("server_sessions_suspended_liveness").Value(); got != 1 {
		t.Fatalf("liveness suspend counter = %d, want 1", got)
	}
	// Grace then expires and the session closes fully.
	h.clk.RunFor(6 * time.Second)
	if n := h.srv.Sessions(); n != 0 {
		t.Fatalf("sessions after grace = %d, want 0", n)
	}
	if r := h.srv.Admission().Reserved(); r != 0 {
		t.Fatalf("reserved after grace = %v, want 0", r)
	}
}

// A lost reply must be counted and traced, not silently ignored.
func TestReplySendFailureCounted(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.net.DropNext("srv", "fake", 1)
	h.sendReq(1, protocol.MsgConnect, protocol.Connect{User: "u", Password: "p"})
	if got := h.scope.Counter("server_reply_send_failures").Value(); got != 1 {
		t.Fatalf("send-failure counter = %d, want 1", got)
	}
	found := false
	for _, e := range h.scope.Trace().Events() {
		if e.Kind == obs.EvSendFailure {
			found = true
		}
	}
	if !found {
		t.Fatal("no EvSendFailure trace event")
	}
}

// A storm of rejected connects (bad credentials, each from a distinct
// address with a fresh request ID) must not grow the dedup map without
// bound: rings of clients that never obtained a session are TTL-swept,
// while a connected client's ring survives.
func TestRejectStormDoesNotLeakDedupRings(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.connectAndPlay(t)
	const storm = 50
	for i := 0; i < storm; i++ {
		h.net.Send(netsim.Packet{
			From: netsim.MakeAddr(fmt.Sprintf("evil%d", i), 6000),
			To:   netsim.MakeAddr("srv", ControlPort),
			Payload: protocol.MustEncodeReq(protocol.MsgConnect, uint32(100+i),
				protocol.Connect{User: "u", Password: "wrong"}),
			Reliable: true,
		})
	}
	h.clk.RunFor(time.Second)
	grown := h.srv.dedupLen()
	if grown < storm {
		t.Fatalf("dedup rings after storm = %d, want ≥ %d", grown, storm)
	}
	// Past the TTL the sweep reaps every sessionless ring.
	h.clk.RunFor(3 * dedupTTL)
	left := h.srv.dedupLen()
	clientSurvives := h.srv.dedupHas(fakeClient)
	if left != 1 || !clientSurvives {
		t.Fatalf("dedup rings after sweep = %d (client survives=%v), want only the live client's",
			left, clientSurvives)
	}
	// The live session must still dedup retransmissions after the sweep.
	if n := h.srv.Sessions(); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}
}

// Fire-and-forget media ops arriving for a suspended session must be
// ignored: a delayed resume or reload must not restart senders the suspend
// machinery paused, or the grace/resume bookkeeping would desynchronize from
// what is actually on the wire.
func TestMediaOpsIgnoredWhileSuspended(t *testing.T) {
	h := newFaultHarness(t, Options{Grace: time.Minute})
	h.connectAndPlay(t)
	h.sendReq(3, protocol.MsgSuspend, protocol.Suspend{})
	var sr protocol.SuspendResult
	h.lastReply(t, protocol.MsgSuspendResult, &sr)
	if !sr.OK {
		t.Fatalf("suspend = %+v", sr)
	}
	// Delayed media ops from the suspended client's address.
	h.sendReq(0, protocol.MsgResume, protocol.MediaOp{})
	h.sendReq(0, protocol.MsgReload, protocol.MediaOp{})
	sess, unlock := h.srv.lockedSession(fakeClient)
	if sess == nil || !sess.suspended {
		unlock()
		t.Fatal("session no longer suspended")
	}
	snds := sess.senders
	unlock()
	for _, snd := range snds {
		if !snd.isPaused() {
			t.Fatalf("sender %s woken by a media op while suspended", snd.stream.ID)
		}
	}
	// The legitimate resume path still works afterwards.
	h.sendReq(4, protocol.MsgConnect, protocol.Connect{ResumeToken: sr.ResumeToken})
	var cr protocol.ConnectResult
	h.lastReply(t, protocol.MsgConnectResult, &cr)
	if !cr.OK || !cr.Resumed {
		t.Fatalf("resume = %+v", cr)
	}
}

// Reload must restart per-document statistics from zero: the sender's own
// counters and the RTP-layer totals carried in RTCP sender reports describe
// the new playback, not the sum of every playback since the doc was opened.
func TestReloadResetsSenderCounters(t *testing.T) {
	h := newFaultHarness(t, Options{})
	h.connectAndPlay(t)
	h.clk.RunFor(3 * time.Second)
	sess, unlock := h.srv.lockedSession(fakeClient)
	snds := sess.senders
	unlock()
	var busy *sender
	for _, snd := range snds {
		if snd.stats().frames > 0 {
			busy = snd
			break
		}
	}
	if busy == nil {
		t.Fatal("no sender emitted anything before the reload")
	}
	rtpBefore := busy.rtpPackets()
	if rtpBefore == 0 {
		t.Fatal("RTP layer recorded no packets before the reload")
	}
	// Inject the reload synchronously: no virtual time passes, so any
	// non-zero counter afterwards is carried-over history.
	h.srv.handle(makeCtrlPacket(protocol.MsgReload, protocol.MediaOp{}))
	st := busy.stats()
	if st.frames != 0 || st.packets != 0 || st.bytes != 0 || st.skipped != 0 {
		t.Fatalf("sender counters after reload = %+v, want all zero", st)
	}
	rtpAfter := busy.rtpPackets()
	if rtpAfter != 0 {
		t.Fatalf("RTP packet count after reload = %d, want 0", rtpAfter)
	}
	// Replay proceeds: the stream re-emits from its first frame.
	h.clk.RunFor(2 * time.Second)
	if busy.stats().frames == 0 {
		t.Fatal("no frames emitted after reload")
	}
}

// A retransmitted request (same request ID) must not re-run its handler:
// the cached reply is re-sent instead.
func TestDuplicateRequestDeduped(t *testing.T) {
	h := newFaultHarness(t, Options{})
	frame := protocol.MustEncodeReq(protocol.MsgConnect, 7,
		protocol.Connect{User: "u", Password: "p", PeakRate: 1_000_000})
	for i := 0; i < 2; i++ {
		h.net.Send(netsim.Packet{
			From: fakeClient, To: netsim.MakeAddr("srv", ControlPort),
			Payload: frame, Reliable: true,
		})
		h.clk.RunFor(time.Second)
	}
	if n := h.srv.Sessions(); n != 1 {
		t.Fatalf("sessions = %d, want 1 (duplicate connect re-admitted)", n)
	}
	if got := h.scope.Counter("server_ctrl_dedup_hits").Value(); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
	var ids []string
	for _, r := range h.replies {
		if r.mt == protocol.MsgConnectResult {
			var cr protocol.ConnectResult
			if err := protocol.DecodeBody(r.body, &cr); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, cr.SessionID)
		}
	}
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("connect replies = %v, want the cached reply re-sent with the same session", ids)
	}
}
