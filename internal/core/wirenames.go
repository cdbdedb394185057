package core

import "repro/internal/transport"

// Stable accounting names for every protocol payload. transport.Stats
// keys its per-type counts by these, and internal/wire's codec registry
// uses the same names (asserted by a wire test), so metrics labels are
// identical across processes and across transports.
func init() {
	transport.RegisterPayloadName(SubtxnMsg{}, "subtxn")
	transport.RegisterPayloadName(StartAdvancementMsg{}, "start_advancement")
	transport.RegisterPayloadName(AckAdvancementMsg{}, "ack_advancement")
	transport.RegisterPayloadName(ReadVersionMsg{}, "read_version")
	transport.RegisterPayloadName(AckReadVersionMsg{}, "ack_read_version")
	transport.RegisterPayloadName(GCMsg{}, "gc")
	transport.RegisterPayloadName(AckGCMsg{}, "ack_gc")
	transport.RegisterPayloadName(CounterReqMsg{}, "counter_req")
	transport.RegisterPayloadName(CounterReplyMsg{}, "counter_reply")
	transport.RegisterPayloadName(CountersReqMsg{}, "counters_req")
	transport.RegisterPayloadName(CountersMsg{}, "counters")
	transport.RegisterPayloadName(NCVoteMsg{}, "nc_vote")
	transport.RegisterPayloadName(NCDecisionMsg{}, "nc_decision")
	transport.RegisterPayloadName(VersionProbeMsg{}, "version_probe")
	transport.RegisterPayloadName(VersionReplyMsg{}, "version_reply")
	transport.RegisterPayloadName(UnlockMsg{}, "unlock")
	transport.RegisterPayloadName(SpanReportMsg{}, "span_report")
	transport.RegisterPayloadName(CoordStateMsg{}, "coord_state")
	transport.RegisterPayloadName(StaleTermMsg{}, "stale_term")
}
