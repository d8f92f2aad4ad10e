// Distributed execution: a pfserve started with peers is a coordinator.
// It runs a job through engine.Lease — Mine's own range loop, merge and
// Run bracket — with each task-block shard of the miner's plan leased to
// a peer worker over the standard job API instead of mined in process,
// so the merged Report is byte-identical to the single-node answer. A
// failed lease is retried on the next peer; a peer that fails
// repeatedly is quarantined for the rest of the job. A globally coupled
// run (fusion, apriori) is one unit, so it leases as one shard; a
// degenerate plan (no units) or one canceled during its root work is
// answered from the coordinator's own root and leases nothing.

package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// mineDistributed runs one job on the configured peers: up to
// ShardsPerPeer shards per peer, each leased by leaseShard. The observer
// receives the coordinator's own events (start and done from the
// engine's Run bracket, shard-leased/done/retry from the leases)
// interleaved with the peers' forwarded event streams, each tagged with
// its shard and peer.
func (m *Manager) mineDistributed(ctx context.Context, j *Job, alg engine.Algorithm, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	// Ship the materialized dataset (transforms already applied) by
	// content hash: peers that already hold pf-<hash> skip the upload.
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		return nil, fmt.Errorf("server: encoding dataset for peers: %w", err)
	}
	data := buf.Bytes()
	sum := sha256.Sum256(data)
	dsName := "pf-" + hex.EncodeToString(sum[:])[:16]

	peers := make([]*peerClient, len(m.cfg.Peers))
	for i, u := range m.cfg.Peers {
		peers[i] = newPeerClient(u, m.cfg.PeerAPIKey, m.cfg.ShardsPerPeer)
	}
	obs := opts.Observer
	// Shard i is first offered to peer i mod N, and each retry to the
	// next peer, so the shards spread evenly and a retry moves on.
	return engine.Lease(ctx, alg, d, opts, len(peers)*m.cfg.ShardsPerPeer, func(ctx context.Context, s engine.Shard) (*engine.Report, error) {
		for attempt := 1; ; attempt++ {
			pc, err := acquirePeer(ctx, peers, s.Index+attempt-1)
			if err != nil {
				return nil, err
			}
			rep, err := m.leaseShard(ctx, pc, j, s, dsName, data, obs)
			pc.release()
			if err == nil {
				pc.noteSuccess()
				return rep, nil
			}
			pc.noteFailure()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if attempt > m.cfg.ShardRetries {
				return nil, fmt.Errorf("server: shard %s failed after %d attempts: %w", s, attempt, err)
			}
			m.metrics.ShardsTotal.Inc("retried")
			obs.Emit(engine.Event{Algorithm: alg.Name(), Phase: engine.PhaseShardRetry,
				Shard: s.String(), Peer: pc.base})
		}
	})
}

// acquirePeer takes a lease slot on the first peer, from peers[from mod
// N] on, that is not quarantined, waiting until that peer has a free
// slot; a peer quarantined during the wait is passed over. It fails
// when every peer is quarantined.
func acquirePeer(ctx context.Context, peers []*peerClient, from int) (*peerClient, error) {
	for {
		var pc *peerClient
		for k := range peers {
			if c := peers[(from+k)%len(peers)]; !c.quarantined() {
				pc = c
				break
			}
		}
		if pc == nil {
			return nil, fmt.Errorf("server: all %d peers are unavailable", len(peers))
		}
		if err := pc.acquire(ctx); err != nil {
			return nil, err
		}
		if !pc.quarantined() {
			return pc, nil
		}
		pc.release()
	}
}

// leaseShard runs one lease attempt: ship the dataset if the peer lacks
// it, submit the shard job, forward its events (tagged shard/peer), and
// fetch the partial report. A Stopped partial — the peer's deadline or
// shutdown truncated the shard — is a lease failure: merging it would
// silently break byte-identity with the single-node run.
func (m *Manager) leaseShard(ctx context.Context, pc *peerClient, j *Job, s engine.Shard, dsName string, data []byte, obs engine.Observer) (*engine.Report, error) {
	if m.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.ShardTimeout)
		defer cancel()
	}
	label := s.String()
	m.metrics.ShardsInFlight.Inc()
	defer m.metrics.ShardsInFlight.Dec()
	start := time.Now()
	obs.Emit(engine.Event{Algorithm: j.Spec.Algorithm, Phase: engine.PhaseShardLeased,
		Shard: label, Peer: pc.base})

	uploaded, err := pc.ensureDataset(ctx, dsName, data)
	if err != nil {
		m.metrics.ShardsTotal.Inc("failed")
		return nil, err
	}
	if uploaded {
		m.metrics.ShardUploads.Inc("miss")
	} else {
		m.metrics.ShardUploads.Inc("hit")
	}

	spec := JobSpec{
		Algorithm: j.Spec.Algorithm,
		Dataset:   DatasetSpec{Catalog: dsName},
		Options:   j.Spec.Options,
		TimeoutMS: j.Spec.TimeoutMS,
		Shard:     &ShardSpec{Lo: s.Lo, Hi: s.Hi, Units: s.Units},
	}
	rep, err := pc.runJob(ctx, spec, func(e engine.Event) {
		e.Shard, e.Peer = label, pc.base
		obs.Emit(e)
	})
	if err != nil {
		m.metrics.ShardsTotal.Inc("failed")
		return nil, err
	}
	if rep.Stopped {
		m.metrics.ShardsTotal.Inc("failed")
		return nil, fmt.Errorf("peer %s returned a truncated (stopped) shard", pc.base)
	}
	m.metrics.ShardsTotal.Inc("done")
	m.metrics.ShardSeconds.Observe(time.Since(start).Seconds(), j.Spec.Algorithm)
	obs.Emit(engine.Event{Algorithm: j.Spec.Algorithm, Phase: engine.PhaseShardDone,
		Shard: label, Peer: pc.base})
	return rep, nil
}
