package server

import (
	"fmt"
	"time"

	"repro/internal/auth"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/qos"
	"repro/internal/rtp"
	"repro/internal/scenario"
)

// This file is the control plane's session lifecycle: the packet dispatch
// and every handler that touches sharded session state. Handlers lock only
// the shard of the client address they serve; the resume paths, which may
// move a session between addresses (and thus shards), go through
// claimSessionFor's ordered double-lock.

// dedupable reports whether a message type is a client request whose
// handling must be idempotent under retransmission.
func dedupable(mt protocol.MsgType) bool {
	switch mt {
	case protocol.MsgConnect, protocol.MsgSubscribe, protocol.MsgTopicList,
		protocol.MsgSearch, protocol.MsgDocRequest, protocol.MsgSuspend,
		protocol.MsgListAnnotations, protocol.MsgStatsRequest:
		return true
	}
	return false
}

// handle dispatches one control packet, observing the wall time spent in
// the handler (decode, dedup check, and the message's own work) into the
// server_ctrl_handle histogram.
func (s *Server) handle(pkt netsim.Packet) {
	t0 := time.Now()
	s.handlePacket(pkt)
	s.hHandle.Observe(time.Since(t0))
}

func (s *Server) handlePacket(pkt netsim.Packet) {
	mt, reqID, body, err := protocol.DecodeReq(pkt.Payload)
	if err != nil {
		return
	}
	if reqID != 0 && dedupable(mt) {
		si := shardIndex(string(pkt.From))
		sh := &s.shards[si]
		sh.dmu.Lock()
		ring := s.dedupRingLocked(sh, si, string(pkt.From))
		if frame, seen := ring.get(reqID); seen {
			sh.dmu.Unlock()
			s.opts.Obs.Counter("server_ctrl_dedup_hits").Inc()
			s.opts.Obs.Emit(obs.EvCtrlDedup, string(pkt.From), int64(reqID), "duplicate "+mt.String())
			if frame != nil {
				// The reply is known: re-send it without re-running the
				// handler. A nil frame means the original is still in
				// flight, so the duplicate is simply dropped.
				s.sendCtrl(pkt.From, frame)
			}
			return
		}
		ring.put(reqID, nil)
		sh.dmu.Unlock()
	}
	switch mt {
	case protocol.MsgConnect:
		var m protocol.Connect
		if protocol.DecodeBody(body, &m) == nil {
			s.onConnect(pkt.From, reqID, m)
		}
	case protocol.MsgSubscribe:
		var m protocol.SubscriptionForm
		if protocol.DecodeBody(body, &m) == nil {
			s.onSubscribe(pkt.From, reqID, m)
		}
	case protocol.MsgTopicList:
		s.replyReq(pkt.From, reqID, protocol.MsgTopics, protocol.Topics{Topics: s.db.Topics(s.Name)})
	case protocol.MsgSearch:
		var m protocol.Search
		if protocol.DecodeBody(body, &m) == nil {
			s.onSearch(pkt.From, reqID, m)
		}
	case protocol.MsgSearchResult:
		var m protocol.SearchResult
		if protocol.DecodeBody(body, &m) == nil {
			s.onSearchResult(m)
		}
	case protocol.MsgDocRequest:
		var m protocol.DocRequest
		if protocol.DecodeBody(body, &m) == nil {
			s.onDocRequest(pkt.From, reqID, m)
		}
	case protocol.MsgHeartbeat:
		var m protocol.Heartbeat
		if protocol.DecodeBody(body, &m) == nil {
			s.onHeartbeat(pkt.From, m)
		}
	case protocol.MsgFeedback:
		var m protocol.Feedback
		if protocol.DecodeBody(body, &m) == nil {
			s.onFeedback(pkt.From, m)
		}
	case protocol.MsgPause:
		s.onMediaOp(pkt.From, mt, protocol.MediaOp{})
	case protocol.MsgResume:
		s.onMediaOp(pkt.From, mt, protocol.MediaOp{})
	case protocol.MsgReload:
		s.onMediaOp(pkt.From, mt, protocol.MediaOp{})
	case protocol.MsgDisableMedia:
		var m protocol.MediaOp
		if protocol.DecodeBody(body, &m) == nil {
			s.onMediaOp(pkt.From, mt, m)
		}
	case protocol.MsgAnnotate:
		// Annotations are accepted and logged with the access trail.
		var m protocol.Annotate
		if protocol.DecodeBody(body, &m) == nil {
			s.onAnnotate(pkt.From, m)
		}
	case protocol.MsgListAnnotations:
		var m protocol.ListAnnotations
		if protocol.DecodeBody(body, &m) == nil {
			s.onListAnnotations(pkt.From, reqID, m)
		}
	case protocol.MsgSuspend:
		s.onSuspend(pkt.From, reqID)
	case protocol.MsgDisconnect:
		s.onDisconnect(pkt.From)
	case protocol.MsgStatsRequest:
		s.onStats(pkt.From, reqID)
	}
}

// onHeartbeat refreshes the session's liveness deadline and acks. An ack
// with OK=false tells the client this server holds no such session — the
// fast path to failover after a server restart. A heartbeat whose session
// ID merely mismatches the live session at that address (a stale beat that
// raced a reattach) is NOT a lost session: it is acked OK with the current
// id, without refreshing liveness, so the client neither fails over nor
// keeps a dead incarnation alive.
func (s *Server) onHeartbeat(from netsim.Addr, m protocol.Heartbeat) {
	si := shardIndex(string(from))
	sh := &s.shards[si]
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok || sess.suspended {
		sh.mu.Unlock()
		s.reply(from, protocol.MsgHeartbeatAck, protocol.HeartbeatAck{OK: false})
		return
	}
	id, doc := sess.id, sess.doc
	if m.SessionID == "" || m.SessionID == id {
		sess.lastBeat = s.clk.Now()
		s.scheduleLivenessLocked(sh, si, sess)
		sh.mu.Unlock()
		// Every ack refreshes the per-document replica set, so the client's
		// failover targets track the document it is actually viewing.
		s.reply(from, protocol.MsgHeartbeatAck, protocol.HeartbeatAck{
			OK: true, SessionID: id, Peers: s.peersForDoc(doc)})
		return
	}
	sh.mu.Unlock()
	s.opts.Obs.Counter("server_stale_heartbeats").Inc()
	s.opts.Obs.Emit(obs.EvLiveness, string(from), 0,
		"stale heartbeat for "+m.SessionID+"; live session is "+id)
	s.reply(from, protocol.MsgHeartbeatAck, protocol.HeartbeatAck{
		OK: true, SessionID: id, Peers: s.peersForDoc(doc)})
}

// connectExtras fills the recovery parameters every successful
// ConnectResult carries: the grace window bounding recovery probing, and
// the replica list for failover.
func (s *Server) connectExtras(res *protocol.ConnectResult) {
	res.GraceSecs = int(s.opts.Grace.Seconds())
	res.Peers = s.peerList()
}

// reattachLocked moves a (possibly suspended) session to a client address
// and restarts its paused media. Shared by the voluntary resume-token path
// and the liveness-recovery ResumeSession path; only the latter re-arms
// liveness policing (police), mirroring where the old sweep armed. Caller
// holds the locks of shards oi (owning) and ni (target) via lockPair.
func (s *Server) reattachLocked(oi, ni int, sess *session, from netsim.Addr, police bool) {
	old, neu := &s.shards[oi], &s.shards[ni]
	sess.suspended = false
	if sess.graceTimer != nil {
		sess.graceTimer.Stop()
		sess.graceTimer = nil
	}
	if sess.resumeToken != "" {
		delete(old.byToken, sess.resumeToken)
		sess.resumeToken = ""
	}
	oldAddr := string(sess.client)
	if cur, ok := old.sessions[oldAddr]; ok && cur == sess {
		delete(old.sessions, oldAddr)
		s.sessionCount.Add(-1)
	}
	delete(old.byID, sess.id)
	old.live.remove(sess)
	if oldAddr != string(from) {
		// The old address's reply cache is sessionless now: back onto the
		// TTL wheel so it cannot outlive the dedup window.
		s.releaseRingLocked(old, oi, oldAddr)
	}
	sess.client = from
	if _, existed := neu.sessions[string(from)]; !existed {
		s.sessionCount.Add(1)
	}
	neu.sessions[string(from)] = sess
	neu.byID[sess.id] = sess
	sess.shard.Store(int32(ni))
	// Resume-before-expiry wakes every sender the suspend parked — and ONLY
	// those: a sender the user paused before the suspend stays paused with
	// its pause-shifted origin intact, so the user's own Resume later picks
	// up exactly where playback stopped. A fresh liveness deadline keeps the
	// sweep from instantly re-suspending.
	sess.lastBeat = s.clk.Now()
	if police {
		s.scheduleLivenessLocked(neu, ni, sess)
	}
	for _, snd := range sess.senders {
		snd.unpark()
	}
	if len(sess.senders) > 0 {
		if sess.srTimer != nil {
			sess.srTimer.Stop()
		}
		sess.srTimer = s.clk.AfterFunc(5*time.Second, func() { s.sendSenderReports(sess) })
	}
}

func (s *Server) onConnect(from netsim.Addr, reqID uint32, m protocol.Connect) {
	now := s.clk.Now()

	// Returning to a suspended session within the grace period skips
	// authentication and admission entirely.
	if m.ResumeToken != "" {
		sess, oi, ni := s.claimSessionFor(from, func(sh *ctrlShard) *session {
			return sh.byToken[m.ResumeToken]
		})
		if sess == nil {
			s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
				OK: false, Reason: "resume token expired"})
			return
		}
		s.reattachLocked(oi, ni, sess, from, false)
		s.unlockPair(oi, ni)
		res := protocol.ConnectResult{OK: true, SessionID: sess.id, Resumed: true}
		s.connectExtras(&res)
		s.replyReq(from, reqID, protocol.MsgConnectResult, res)
		return
	}

	// Recovering a session by ID after a liveness loss: the client never
	// got a resume token because it never chose to leave. If the session
	// survived (possibly auto-suspended by the sweep), re-attach it;
	// otherwise tell the client the session is gone so it fails over.
	if m.ResumeSession != "" {
		sess, oi, ni := s.claimSessionFor(from, func(sh *ctrlShard) *session {
			return sh.byID[m.ResumeSession]
		})
		if sess == nil {
			s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
				OK: false, SessionLost: true, Reason: "unknown session " + m.ResumeSession})
			return
		}
		wasSuspended := sess.suspended
		s.reattachLocked(oi, ni, sess, from, true)
		s.unlockPair(oi, ni)
		if wasSuspended {
			s.opts.Obs.Counter("server_sessions_resumed").Inc()
			s.opts.Obs.Emit(obs.EvSessionResume, sess.user, int64(sess.connID),
				"session "+sess.id+" resumed after liveness loss")
		}
		res := protocol.ConnectResult{OK: true, SessionID: sess.id, Resumed: true}
		s.connectExtras(&res)
		s.replyReq(from, reqID, protocol.MsgConnectResult, res)
		return
	}

	// A signed handoff ticket admits the session as a continuation from a
	// peer server: the source already authenticated the user, so the ticket
	// (signature + expiry) replaces the password round-trip, and the connect
	// is exempt from the admission-redirect watermark — shedding a session
	// mid-handoff would orphan it.
	user, class := m.User, qos.Standard
	viaHandoff := false
	if m.Handoff != nil {
		if err := m.Handoff.Verify(s.opts.ClusterKey, now); err != nil {
			s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
				OK: false, Reason: "handoff ticket rejected: " + err.Error()})
			return
		}
		user, class = m.Handoff.User, m.Handoff.Class
		viaHandoff = true
		s.cHandoffAccepts.Inc()
		s.opts.Obs.Emit(obs.EvHandoff, user, 0,
			"accepted handoff of "+m.Handoff.Doc+" from "+m.Handoff.From)
	} else {
		// Authentication.
		u, err := s.users.Authenticate(m.User, m.Password, now)
		if err == auth.ErrUnknownUser {
			s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
				OK: false, NeedSubscription: true, Reason: "please subscribe"})
			return
		}
		if err != nil {
			s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
				OK: false, Reason: err.Error()})
			return
		}
		class = u.Class
	}

	// Load-aware admission redirect: over the watermark, a fresh connect is
	// pointed at less-loaded peers instead of rejected. Failover and handoff
	// connects are exempt — they carry a session that must land somewhere.
	if !m.Failover && !viaHandoff {
		if reason, over := s.overWatermark(); over {
			if targets := s.redirectTargets(nil); len(targets) > 0 {
				s.cRedirects.Inc()
				s.opts.Obs.Emit(obs.EvRedirect, user, 0, "redirect: "+reason)
				s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
					OK: false, Redirect: true, Peers: targets, Reason: reason})
				return
			}
		}
	}

	// Admission: network condition + connection load + QoS floor +
	// pricing contract.
	peak := m.PeakRate
	if peak <= 0 {
		peak = 2_000_000
	}
	dec := s.adm.Request(qos.ConnRequest{
		User: user, Class: class, PeakRate: peak, MinRate: m.MinRate,
		Resumed: m.Failover || viaHandoff,
	})
	if dec.Verdict == qos.Rejected {
		s.replyReq(from, reqID, protocol.MsgConnectResult, protocol.ConnectResult{
			OK: false, Reason: dec.Reason})
		return
	}
	sess := &session{
		id:         fmt.Sprintf("%s-sess-%d", s.Name, s.nextID.Add(1)),
		user:       user,
		class:      class,
		client:     from,
		connID:     dec.ConnID,
		floorLevel: m.FloorLevel,
		qosMgr:     qos.NewManager(s.clk, s.opts.Policy),
		ssrcToID:   map[uint32]string{},
		startedAt:  now,
		lwPos:      noWheelPos(),
	}
	sess.qosMgr.SetObs(s.opts.Obs)
	ni := shardIndex(string(from))
	sess.shard.Store(int32(ni))
	sh := &s.shards[ni]
	sh.mu.Lock()
	if _, existed := sh.sessions[string(from)]; !existed {
		s.sessionCount.Add(1)
	}
	sh.sessions[string(from)] = sess
	sh.byID[sess.id] = sess
	sh.mu.Unlock()
	s.opts.Obs.Gauge("server_sessions").Set(s.sessionCount.Load())
	s.opts.Obs.Emit(obs.EvSessionStart, user, int64(dec.ConnID), "session "+sess.id)
	res := protocol.ConnectResult{
		OK: true, SessionID: sess.id,
		GrantedRate: dec.Rate, Degraded: dec.Verdict == qos.AdmittedDegraded,
	}
	s.connectExtras(&res)
	s.replyReq(from, reqID, protocol.MsgConnectResult, res)
}

func (s *Server) onDocRequest(from netsim.Addr, reqID uint32, m protocol.DocRequest) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok || sess.suspended {
		sh.mu.Unlock()
		s.replyReq(from, reqID, protocol.MsgDocResponse, protocol.DocResponse{
			OK: false, Reason: "no active session"})
		return
	}
	doc, ok := s.db.Get(m.Name)
	if !ok {
		// Not held here — but if the cluster directory knows replicas that
		// do hold it, hand the session off instead of failing the request.
		if dir := s.opts.Directory; dir != nil {
			var holders []string
			for _, r := range dir.Replicas(m.Name) {
				if r != s.Name {
					holders = append(holders, r)
				}
			}
			if len(holders) > 0 {
				s.issueHandoff(sh, sess, from, reqID, m.Name, holders)
				return
			}
		}
		sh.mu.Unlock()
		s.replyReq(from, reqID, protocol.MsgDocResponse, protocol.DocResponse{
			OK: false, Reason: "document not found: " + m.Name})
		return
	}
	// Tear down any previous document's flows.
	s.stopSendersLocked(sess)
	sess.doc = m.Name
	sess.qosMgr = qos.NewManager(s.clk, s.opts.Policy)
	sess.qosMgr.SetObs(s.opts.Obs)
	sess.ssrcToID = map[uint32]string{}
	s.opts.Obs.Counter("server_docs_served").Inc()

	// The flow scheduler computes the flow scenario and activates the
	// media servers. The pre-roll lead matches the client's media time
	// window (plus a margin), so that the deliberate initial delay fills
	// each buffer to exactly its window.
	preRoll := s.opts.PreRoll
	if m.WindowMS > 0 {
		preRoll = time.Duration(m.WindowMS)*time.Millisecond + 100*time.Millisecond
	}
	flows := scenario.BuildFlow(doc.Scenario, scenario.FlowOptions{
		PreRoll: preRoll,
		Rate: func(st *scenario.Stream) float64 {
			return media.ForStream(st).Bitrate(0)
		},
	})
	var announces []protocol.StreamAnnounce
	clientHost := from.Host()
	base := m.MediaPortBase
	if base <= 0 {
		base = 7000
	}
	// A short setup delay keeps the first media packets from racing the
	// DocResponse on the unordered datagram path.
	origin := s.clk.Now().Add(200 * time.Millisecond)
	for i, f := range flows {
		src := media.ForStream(f.Stream)
		ssrc := s.nextSSRC.Add(1)
		port := base + i
		to := netsim.MakeAddr(clientHost, port)
		snd := &sender{srv: s, stream: f.Stream, sendAt: f.SendAt, src: src, qos: sess.qosMgr, to: to}
		sess.senders = append(sess.senders, snd)
		sess.qosMgr.Register(qos.StreamConfig{
			ID:     f.Stream.ID,
			Kind:   f.Stream.Type,
			Group:  f.Stream.SyncGroup,
			Levels: src.Levels(),
			Floor:  minInt(sess.floorLevel, src.Levels()-1),
		})
		// Shared fan-out: a time-sensitive stream whose session grades at
		// the flow's level rides the document's registered flow — the
		// announce then carries the FLOW's SSRC, and the client receives the
		// same packets as every other subscriber. Late joiners get a
		// catch-up patch from the flow's segment cache (see flow.go). Any
		// other stream gets a private flow of one.
		if s.opts.SharedFlows && f.Stream.Type.TimeSensitive() && sess.qosMgr.LevelMatches(f.Stream.ID, 0) {
			ssrc = s.flows.attach(flowKey{doc: m.Name, stream: f.Stream.ID, level: 0}, snd, origin).ssrc
		} else {
			snd.fl.Store(newFlow(snd, ssrc, 0, origin, sess.qosMgr))
		}
		sess.ssrcToID[ssrc] = f.Stream.ID
		announces = append(announces, protocol.StreamAnnounce{
			StreamID:        f.Stream.ID,
			SSRC:            ssrc,
			Port:            port,
			PayloadType:     byte(src.PayloadType(0)),
			Rate:            f.Rate,
			FrameIntervalUS: src.FrameInterval().Microseconds(),
			Levels:          src.Levels(),
		})
	}
	s.users.LogRetrieval(sess.user, m.Name, s.clk.Now())
	sh.mu.Unlock()

	s.replyReq(from, reqID, protocol.MsgDocResponse, protocol.DocResponse{
		OK:          true,
		Name:        doc.Name,
		ScenarioSrc: doc.Source,
		Streams:     announces,
		Peers:       s.peersForDoc(doc.Name),
	})
	// Activate the media servers and the periodic RTCP sender reports. The
	// session may have moved shards (or been torn down) while the reply
	// was on the wire, so re-locate it; starting a stopped sender is a
	// no-op, and sendSenderReports revalidates before re-arming.
	sh2, _ := s.lockSession(sess)
	sess.flowOrigin = origin
	for _, snd := range sess.senders {
		snd.start()
	}
	if sess.srTimer != nil {
		sess.srTimer.Stop()
	}
	sess.srTimer = s.clk.AfterFunc(5*time.Second, func() { s.sendSenderReports(sess) })
	sh2.mu.Unlock()
}

// sendSenderReports emits one RTCP SR per active media sender so receivers
// can map RTP timestamps to the sender's wall clock (RFC 1889 §6.3). The
// shard lock covers only the session snapshot; report construction takes
// each stream's flow lock and the sends happen lock-free.
func (s *Server) sendSenderReports(sess *session) {
	sh, _ := s.lockSession(sess)
	if sess.suspended || sh.byID[sess.id] != sess {
		sh.mu.Unlock()
		return
	}
	now := s.clk.Now()
	mediaTime := now.Sub(sess.flowOrigin)
	if mediaTime < 0 {
		mediaTime = 0
	}
	snds := append([]*sender(nil), sess.senders...)
	if len(snds) > 0 {
		sess.srTimer = s.clk.AfterFunc(5*time.Second, func() { s.sendSenderReports(sess) })
	}
	sh.mu.Unlock()
	from := netsim.MakeAddr(s.Name, mediaPort)
	for _, snd := range snds {
		if sr := snd.report(now, mediaTime); sr != nil {
			s.net.Send(netsim.Packet{From: from, To: snd.to, Payload: sr.Marshal()})
		}
	}
}

func (s *Server) onFeedback(from netsim.Addr, m protocol.Feedback) {
	// One short read-side critical section snapshots the session's SSRC
	// map and QoS manager; report decoding and grading then run off the
	// shard lock (the manager has its own fine-grained lock), and any
	// rate change is queued for the batched renegotiation tick instead of
	// renegotiating per packet.
	sh := s.shardOf(string(from))
	sh.mu.RLock()
	sess, ok := sh.sessions[string(from)]
	var mgr *qos.Manager
	var ssrcToID map[uint32]string
	if ok {
		mgr = sess.qosMgr
		ssrcToID = make(map[uint32]string, len(sess.ssrcToID))
		for ssrc, id := range sess.ssrcToID {
			ssrcToID[ssrc] = id
		}
	}
	sh.mu.RUnlock()
	if !ok || s.opts.DisableGrading {
		return
	}
	parts, err := rtp.SplitCompound(m.RTCP)
	if err != nil {
		return
	}
	var acted []string
	for _, part := range parts {
		cp, err := rtp.UnmarshalControl(part)
		if err != nil || cp.RR == nil {
			continue
		}
		for _, block := range cp.RR.Reports {
			id, ok := ssrcToID[block.SSRC]
			if !ok {
				continue
			}
			if acts := mgr.Feedback(qos.FromRTCP(id, block, s.clk.Now())); len(acts) > 0 {
				// Grading changed the stream mix's rate: mark the session
				// for the next renegotiation tick so freed bandwidth
				// returns to the admission pool ([KRI 94]-style service
				// renegotiation) without an admission-pool round-trip per
				// RTCP packet.
				s.queueRenegotiate(sess)
				for _, act := range acts {
					acted = append(acted, act.StreamID)
				}
			}
		}
	}
	if len(acted) == 0 || !s.opts.SharedFlows {
		return
	}
	// Per-flow vs per-session level reconciliation: any grading action moves
	// the acted stream's session level away from the registered flow's
	// fixed encode level (upgrades back toward it only happen on already
	// private flows), so the subscriber forks onto a private flow — the
	// other subscribers never notice.
	sh.mu.Lock()
	if cur, live := sh.sessions[string(from)]; live && cur == sess {
		for _, id := range acted {
			if snd := sess.sender(id); snd != nil && !sess.qosMgr.LevelMatches(id, 0) {
				snd.diverge()
			}
		}
	}
	sh.mu.Unlock()
}

func (s *Server) onMediaOp(from netsim.Addr, mt protocol.MsgType, m protocol.MediaOp) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sess, ok := sh.sessions[string(from)]
	if !ok || sess.suspended {
		// A suspended session's media is parked behind the grace machinery;
		// a delayed fire-and-forget resume/reload must not restart senders
		// toward a client the suspend machinery believes is paused. Only
		// the resume-token / ResumeSession paths may wake it.
		return
	}
	switch mt {
	case protocol.MsgPause:
		for _, snd := range sess.senders {
			snd.pause()
		}
	case protocol.MsgResume:
		for _, snd := range sess.senders {
			snd.resume()
		}
	case protocol.MsgReload:
		origin := s.clk.Now()
		for _, snd := range sess.senders {
			snd.restart(origin)
		}
	case protocol.MsgDisableMedia:
		if snd := sess.sender(m.StreamID); snd != nil {
			snd.disable()
		}
	}
}

// suspendSessionLocked pauses the session's media and parks it behind a
// fresh resume token and grace timer. Caller holds sh.mu (the shard owning
// the session). Used both for the paper's voluntary suspend and for
// liveness auto-suspension.
func (s *Server) suspendSessionLocked(sh *ctrlShard, sess *session) string {
	for _, snd := range sess.senders {
		snd.park()
	}
	sess.suspended = true
	sess.resumeToken = fmt.Sprintf("%s-tok-%d", s.Name, s.nextID.Add(1))
	sh.byToken[sess.resumeToken] = sess
	tok := sess.resumeToken
	sh.live.remove(sess)
	// "The suspended connection remains active for a period of time ...
	// when this interval is passed the connection closes and the attached
	// client is informed about the event."
	if sess.graceTimer != nil {
		sess.graceTimer.Stop()
	}
	sess.graceTimer = s.clk.AfterFunc(s.opts.Grace, func() { s.expireSuspended(tok) })
	return tok
}

func (s *Server) onSuspend(from netsim.Addr, reqID uint32) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		sh.mu.Unlock()
		s.replyReq(from, reqID, protocol.MsgSuspendResult, protocol.SuspendResult{OK: false})
		return
	}
	tok := s.suspendSessionLocked(sh, sess)
	grace := s.opts.Grace
	sh.mu.Unlock()
	s.replyReq(from, reqID, protocol.MsgSuspendResult, protocol.SuspendResult{
		OK: true, ResumeToken: tok, GraceSecs: int(grace.Seconds()),
	})
}

func (s *Server) expireSuspended(token string) {
	// The token lives on the shard of the session's current address; scan
	// for it (grace expiries are rare).
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sess, ok := sh.byToken[token]
		if !ok {
			sh.mu.Unlock()
			continue
		}
		if !sess.suspended {
			sh.mu.Unlock()
			return
		}
		client := sess.client
		s.teardownSessionLocked(sh, sess, "grace period expired")
		sh.mu.Unlock()
		s.reply(client, protocol.MsgError, protocol.ErrorMsg{Msg: "suspended connection closed: grace period expired"})
		return
	}
}

func (s *Server) onDisconnect(from netsim.Addr) {
	sh := s.shardOf(string(from))
	sh.mu.Lock()
	sess, ok := sh.sessions[string(from)]
	if !ok {
		sh.mu.Unlock()
		return
	}
	s.teardownSessionLocked(sh, sess, "client disconnect")
	sh.mu.Unlock()
}

// teardownSessionLocked removes a session from its shard's maps and wheels,
// stops its media, releases its reservation and settles billing. Caller
// holds sh.mu (the shard owning the session).
func (s *Server) teardownSessionLocked(sh *ctrlShard, sess *session, note string) {
	addr := string(sess.client)
	if cur, ok := sh.sessions[addr]; ok && cur == sess {
		delete(sh.sessions, addr)
		s.sessionCount.Add(-1)
	}
	delete(sh.byID, sess.id)
	if sess.resumeToken != "" {
		delete(sh.byToken, sess.resumeToken)
		sess.resumeToken = ""
	}
	if sess.graceTimer != nil {
		sess.graceTimer.Stop()
		sess.graceTimer = nil
	}
	sh.live.remove(sess)
	sh.dropRingLocked(addr)
	s.stopSendersLocked(sess)
	s.adm.Release(sess.connID)
	s.opts.Obs.Gauge("server_sessions").Set(s.sessionCount.Load())
	s.opts.Obs.Emit(obs.EvSessionEnd, sess.user, int64(sess.connID), note)
	s.users.ChargeSession(sess.user, s.clk.Now().Sub(sess.startedAt), s.clk.Now())
	s.users.LogLogout(sess.user, s.clk.Now())
}

func (s *Server) stopSendersLocked(sess *session) {
	for _, snd := range sess.senders {
		snd.stop()
	}
	sess.senders = nil
	if sess.srTimer != nil {
		sess.srTimer.Stop()
		sess.srTimer = nil
	}
}
