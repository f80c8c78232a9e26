package wire

// The authoritative tag allocation table. Tags are written to the wire
// (as the leading uvarint of every `any` value slot), so they are part
// of the frame format: NEVER renumber or reuse a tag — retire it and
// allocate the next free number in the owner package's block. Each
// protocol package owns one block and registers its (unexported) types
// against these constants in its wire.go.
const (
	// 0–15: built-in value encodings, owned by the codec itself
	// (codec.go). These never correspond to registered types.
	tagNil     Tag = 0
	tagFalse   Tag = 1
	tagTrue    Tag = 2
	tagInt64   Tag = 3
	tagInt     Tag = 4
	tagString  Tag = 5
	tagBytes   Tag = 6
	tagFloat64 Tag = 7
	tagUint64  Tag = 8
	tagInt64s  Tag = 9

	// FirstKindTag is the first tag available to registered kinds.
	FirstKindTag Tag = 16

	// 16–39: abcast (atomic broadcast protocols and the batching layer).
	TagSeqRequest    Tag = 16
	TagSeqOrder      Tag = 17
	TagSeqSubmit     Tag = 18
	TagSeqHB         Tag = 19
	TagSeqSyncReq    Tag = 20
	TagSeqSyncResp   Tag = 21
	TagSeqNewView    Tag = 22
	TagLamportSubmit Tag = 23
	TagLamportData   Tag = 24
	TagLamportAck    Tag = 25
	TagTokenMsg      Tag = 26
	TagTokenOrder    Tag = 27
	// 28–31: retired, never reuse (the token ring's failure-detection
	// heartbeat, regeneration sync request/response and catch-up).
	TagBatchMsg Tag = 32

	// 40: retired, never reuse (the old msc package's m-SC update; both
	// conditions now ride TagMLinUpdate).

	// 48–55: mlin (the replica of Figures 4 and 6).
	TagMLinUpdate    Tag = 48
	TagMLinQueryMsg  Tag = 49
	TagMLinQueryResp Tag = 50
	TagMLinApplyAck  Tag = 51

	// 56–63: recovery (checkpoint transfer).
	TagXferReq  Tag = 56
	TagXferResp Tag = 57

	// 64–95: mop (declarative procedures riding inside update payloads).
	TagReadOp    Tag = 64
	TagWriteOp   Tag = 65
	TagMultiRead Tag = 66
	TagSum       Tag = 67
	TagMAssign   Tag = 68
	TagCAS       Tag = 69
	TagDCAS      Tag = 70
	TagTransfer  Tag = 71

	// 96–111: verify (record streaming to the live verification service).
	TagMonHello Tag = 96
	TagMonBatch Tag = 97
	TagMonAck   Tag = 98
	TagMonFin   Tag = 99

	// 112–119: shard (cross-shard ticket/close/commit merge).
	TagShardTicket Tag = 112
	TagShardCommit Tag = 113
	TagShardClose  Tag = 114

	// 1000+: test-only payloads (network/testutil).
	TagConformance Tag = 1000
)
