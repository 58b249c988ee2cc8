// Cluster federation support on the server side: the placement directory
// the server consults for per-document replica sets and peer load, the
// load-aware admission redirect, and the signed cross-server handoff it
// issues when a requested document is homed elsewhere. The server works
// unchanged without a Directory — peersForDoc degrades to the static peer
// list and the watermark/handoff paths stay dormant.
package server

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Directory is the server's view of the cluster: which servers hold a
// document, and how loaded its peers are. internal/cluster implements it
// live over sibling servers' admission state; a static Placement implements
// the replica half for the hermesd binary.
type Directory interface {
	// Replicas returns the servers holding doc (possibly including the
	// asking server), primary first. Empty or nil means the document is
	// unknown to the directory.
	Replicas(doc string) []string
	// PeerLoad returns the peer's admission utilization (reserved/capacity)
	// when known. ok=false means the load is not observable — redirects
	// then fall back to placement order.
	PeerLoad(host string) (float64, bool)
}

// Placement is a static document→replica map. It implements Directory with
// unobservable peer load, which is what a standalone hermesd knows: where
// documents live, but not how busy its peers are.
type Placement map[string][]string

// Replicas implements Directory.
func (p Placement) Replicas(doc string) []string { return p[doc] }

// PeerLoad implements Directory; static placement carries no load signal.
func (p Placement) PeerLoad(string) (float64, bool) { return 0, false }

// ParsePlacement parses the -placement flag syntax:
// "doc=srvA+srvB,doc2=srvB". Replica order is preserved (primary first).
func ParsePlacement(s string) (Placement, error) {
	p := Placement{}
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		doc, reps, ok := strings.Cut(ent, "=")
		doc = strings.TrimSpace(doc)
		if !ok || doc == "" {
			return nil, fmt.Errorf("placement: bad entry %q (want doc=srvA+srvB)", ent)
		}
		var hosts []string
		for _, h := range strings.Split(reps, "+") {
			if h = strings.TrimSpace(h); h != "" {
				hosts = append(hosts, h)
			}
		}
		if len(hosts) == 0 {
			return nil, fmt.Errorf("placement: no replicas for %q", doc)
		}
		p[doc] = hosts
	}
	return p, nil
}

// peersForDoc is the per-document replica set advertised to clients (on doc
// responses and every heartbeat ack): the other servers holding doc, so a
// mid-lesson failover lands on a replica that can actually serve it. Without
// a directory entry it degrades to the static peer list.
func (s *Server) peersForDoc(doc string) []string {
	if dir := s.opts.Directory; dir != nil && doc != "" {
		if reps := dir.Replicas(doc); len(reps) > 0 {
			out := make([]string, 0, len(reps))
			for _, r := range reps {
				if r != s.Name {
					out = append(out, r)
				}
			}
			if len(out) > 0 {
				return out
			}
		}
	}
	return s.peerList()
}

// overWatermark reports whether this server should shed fresh admissions,
// per the configured reserved-bandwidth and session-count watermarks.
func (s *Server) overWatermark() (string, bool) {
	if s.adm.OverWatermark(s.opts.RedirectWatermark) {
		return fmt.Sprintf("reserved bandwidth over %.0f%% watermark",
			s.opts.RedirectWatermark*100), true
	}
	if s.opts.SessionWatermark > 0 && int(s.sessionCount.Load()) >= s.opts.SessionWatermark {
		return fmt.Sprintf("session count at watermark (%d)", s.opts.SessionWatermark), true
	}
	return "", false
}

// redirectTargets orders candidate servers for an admission redirect,
// least-loaded first. candidates may be nil (use the full peer list). Peers
// with unobservable load keep their given order after the observable ones;
// peers known to be at least as loaded as this server are dropped, so a
// redirect storm converges instead of ping-ponging between full servers.
func (s *Server) redirectTargets(candidates []string) []string {
	if candidates == nil {
		candidates = s.peerList()
	}
	dir := s.opts.Directory
	if dir == nil {
		return candidates
	}
	self := s.adm.Utilization()
	type cand struct {
		host  string
		load  float64
		known bool
	}
	ordered := make([]cand, 0, len(candidates))
	for _, h := range candidates {
		if h == s.Name {
			continue
		}
		load, known := dir.PeerLoad(h)
		if known && load >= self && self > 0 {
			continue
		}
		ordered = append(ordered, cand{host: h, load: load, known: known})
	}
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].known != ordered[j].known {
			return ordered[i].known
		}
		return ordered[i].load < ordered[j].load
	})
	out := make([]string, len(ordered))
	for i, c := range ordered {
		out[i] = c.host
	}
	return out
}

// issueHandoff answers a DocRequest for a document homed elsewhere: it
// suspends the session here behind the existing grace machinery (so the
// client can fall back if every replica is down), mints a signed handoff
// ticket bound to user+document, and points the client at the least-loaded
// replica. The lesson being left is stopped, not parked: the browser tears
// its presentation down on the handoff, so a fallback to this server must
// not wake its streams. Caller holds sh.mu; it is released here before the
// reply.
func (s *Server) issueHandoff(sh *ctrlShard, sess *session, from netsim.Addr, reqID uint32, doc string, holders []string) {
	s.stopSendersLocked(sess)
	tok := s.suspendSessionLocked(sh, sess)
	user, class := sess.user, sess.class
	sh.mu.Unlock()

	targets := s.redirectTargets(holders)
	if len(targets) == 0 {
		targets = holders
	}
	target := targets[0]
	res := protocol.DocResponse{
		OK:          false,
		Name:        doc,
		Redirect:    target,
		Peers:       holders,
		ResumeToken: tok,
		GraceSecs:   int(s.opts.Grace.Seconds()),
		Reason:      "document homed on " + target,
	}
	if len(s.opts.ClusterKey) > 0 {
		t := &protocol.HandoffTicket{
			User: user, Class: class, Doc: doc,
			From: s.Name, Target: target,
			ExpiresUnixMilli: s.clk.Now().Add(s.opts.Grace).UnixMilli(),
		}
		t.Sign(s.opts.ClusterKey)
		res.Handoff = t
	}
	s.cHandoffs.Inc()
	s.opts.Obs.Emit(obs.EvHandoff, user, 0, "handoff of "+doc+" → "+target)
	s.replyReq(from, reqID, protocol.MsgDocResponse, res)
}
