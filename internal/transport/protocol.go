// Control-plane message shapes: connection hello and shard state fetch.
// The bootstrap blob is incremental's encoding of a BootstrapState
// (incremental.EncodeBootstrap), which the transport only frames as a
// wal.Snapshot, so a state transfer over the wire carries the same
// integrity check as a snapshot file read from disk.
package transport

import (
	"encoding/json"
	"fmt"

	"entityres/internal/entity"
	"entityres/internal/sharded"
)

// Hello opens every connection. The client states the deployment shape
// it expects; the server refuses a mismatch — a coordinator pointed at the
// wrong shard, or a shard directory opened under a different partition,
// dies loudly instead of corrupting a stream. The reply carries the
// server's durable stream position and counters.
type Hello struct {
	// Shards and Index identify the partition slot this connection expects
	// to talk to.
	Shards int `json:"shards"`
	Index  int `json:"index"`
	// Kind is the resolution setting (entity.Kind).
	Kind int `json:"kind"`
	// Meta marks a deferred meta-blocking deployment.
	Meta bool `json:"meta,omitempty"`
	// LastSeq is the routed-stream sequence number the shard is current
	// through (reply only).
	LastSeq uint64 `json:"last_seq,omitempty"`
	// Operation and comparison counters (reply only).
	Inserts     int64 `json:"inserts,omitempty"`
	Updates     int64 `json:"updates,omitempty"`
	Deletes     int64 `json:"deletes,omitempty"`
	Comparisons int64 `json:"comparisons,omitempty"`
}

// stateJSON answers a frameState request: the shard's durable position,
// counters and full match edge set — what a coordinator folds in when it
// reopens or a shard rejoins.
type stateJSON struct {
	LastSeq     uint64     `json:"last_seq"`
	Inserts     int64      `json:"inserts"`
	Updates     int64      `json:"updates"`
	Deletes     int64      `json:"deletes"`
	Comparisons int64      `json:"comparisons"`
	Edges       []edgeJSON `json:"edges,omitempty"`
}

type edgeJSON struct {
	A entity.ID `json:"a"`
	B entity.ID `json:"b"`
}

// marshalJSON marshals a control-plane message; the shapes above cannot
// fail to marshal.
func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("transport: marshaling control message: %v", err))
	}
	return b
}

// unmarshalJSON parses a control-plane message.
func unmarshalJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("transport: decoding control message: %w", err)
	}
	return nil
}

// Expectation builds the deployment identity a client of shard index under
// cfg asserts in its opening handshake.
func Expectation(cfg sharded.Config, index int) Hello {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	return Hello{Shards: shards, Index: index, Kind: int(cfg.Kind), Meta: cfg.Meta != nil}
}
