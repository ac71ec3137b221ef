package server

import (
	"context"

	"svwsim/internal/store"
)

// serverCheckpoints is the engine's checkpoint view of the server's
// sharded store: a probe walks the local tiers first, then the key's
// rendezvous owner over the same GET /v1/store/{key} read path results
// use — a fabric member fast-forwards each skip point once and every
// peer restores the warm state instead of re-emulating it. Peer-served
// checkpoints are promoted into the local memory tier only, like peer
// result reads, so the persistent copy stays where the sharding map says
// it lives.
//
// A checkpoint probe is not a served result: the store's tier counters
// (svw_store_requests_total, the /v1/stats hits) count results only, so
// probes leave them alone. The engine's own checkpoint counters (hits,
// puts, fast-forwards) account for checkpoints.
type serverCheckpoints struct{ s *Server }

func (c serverCheckpoints) GetCheckpoint(key string) ([]byte, bool) {
	if val, origin := c.s.store.Get(key); origin != store.OriginMiss {
		return val, true
	}
	// The engine probes mid-job with no request context in scope;
	// peerFetch bounds the read with its own peer timeout.
	if val, ok := c.s.peerFetch(context.Background(), nil, key); ok {
		c.s.store.PutMemory(key, val)
		return val, true
	}
	return nil, false
}

func (c serverCheckpoints) PutCheckpoint(key string, val []byte) {
	c.s.store.Put(key, val)
}
