package server

import "repro/internal/netsim"

// Test-only accessors into the sharded control plane, so tests reach
// session and dedup state without hard-coding the shard layout.

// lockedSession write-locks addr's shard and returns the session attached
// there (nil when none) plus the unlock.
func (s *Server) lockedSession(addr netsim.Addr) (*session, func()) {
	sh := s.shardOf(string(addr))
	sh.mu.Lock()
	return sh.sessions[string(addr)], sh.mu.Unlock
}

// dedupHas reports whether addr currently holds a reply cache.
func (s *Server) dedupHas(addr netsim.Addr) bool {
	sh := s.shardOf(string(addr))
	sh.dmu.Lock()
	defer sh.dmu.Unlock()
	_, ok := sh.dedup[string(addr)]
	return ok
}

// rtpPackets returns the RTP packet count of the sender's current flow.
func (sn *sender) rtpPackets() uint32 {
	fl := sn.fl.Load()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.rtpS.PacketCount()
}
