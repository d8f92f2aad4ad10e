// Distributed execution: a pfserve started with peers is a coordinator.
// It splits a job into task-block shards on the miner's own static
// decomposition (engine.Algorithm's Plan), leases each shard to a peer
// worker over the standard job API, and merges the partial reports into
// a Report byte-identical to the single-node answer. Failed leases are
// retried on other peers; a peer that fails repeatedly is quarantined
// for the rest of the job. A globally coupled run (fusion, apriori) is
// one unit, so it leases as one shard; a degenerate plan (no units) is
// answered from the coordinator's own root work and leases nothing.

package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// shardPlan cuts units task units into at most slots contiguous shards of
// near-equal size, so a shard boundary is always a task-unit boundary —
// the invariant that makes the merged result byte-identical to the
// single-node run.
func shardPlan(units, slots int) []ShardSpec {
	n := slots
	if n > units {
		n = units
	}
	if n < 1 {
		n = 1
	}
	out := make([]ShardSpec, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*units/n, (i+1)*units/n
		if lo < hi {
			out = append(out, ShardSpec{Lo: lo, Hi: hi, Units: units})
		}
	}
	return out
}

func shardLabel(idx, total int) string { return fmt.Sprintf("%d/%d", idx+1, total) }

// mineDistributed fans one job out across the configured peers and
// merges the results. The observer receives the coordinator's own
// lifecycle events (start, shard-leased/done/retry, done) interleaved
// with the peers' forwarded event streams, each tagged with its shard
// and peer.
func (m *Manager) mineDistributed(ctx context.Context, j *Job, alg engine.Algorithm, d *dataset.Dataset, opts engine.Options) (*engine.Report, error) {
	obs := opts.Observer
	obs.Emit(engine.Event{Algorithm: alg.Name(), Phase: engine.PhaseStart})
	// The coordinator emits its own lifecycle events; the plan below and
	// its merge, which brackets with engine.Run, run unobserved.
	opts.Observer = nil

	// The one plan both cuts the shards and merges them.
	plan, err := alg.Plan(ctx, d, opts)
	if err != nil {
		return nil, err
	}
	if plan.Root.Stopped {
		// Canceled while planning: the unit count is truncated, so
		// there is nothing to shard or salvage.
		return &engine.Report{Algorithm: alg.Name(), Stopped: true}, nil
	}
	answer := func(rep *engine.Report) (*engine.Report, error) {
		ev := engine.Event{Algorithm: alg.Name(), Phase: engine.PhaseDone,
			Iteration: rep.Iterations, PoolSize: len(rep.Patterns)}
		if ev.Iteration == 0 {
			ev.Iteration = rep.Visited
		}
		obs.Emit(ev)
		return rep, nil
	}
	if plan.Units == 0 {
		// The root answered the run: there is nothing to lease.
		rep, err := plan.MergeShards([]*engine.Report{plan.Root})
		if err != nil {
			return nil, err
		}
		return answer(rep)
	}
	shards := shardPlan(plan.Units, len(m.cfg.Peers)*m.cfg.ShardsPerPeer)

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
		peers[i] = newPeerClient(u, m.cfg.PeerAPIKey)
	}

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	totalSlots := len(peers) * m.cfg.ShardsPerPeer
	var (
		mu        sync.Mutex
		parts     = make([]*engine.Report, len(shards))
		attempts  = make([]int, len(shards))
		remaining = len(shards)
		liveSlots = totalSlots
		fatal     error
	)
	// Each shard is in flight or queued exactly once; capacity covers
	// every retry requeue plus one hand-back per retiring slot.
	pending := make(chan int, len(shards)*(m.cfg.ShardRetries+1)+totalSlots)
	done := make(chan struct{})
	var closeOnce sync.Once
	finish := func() { closeOnce.Do(func() { close(done) }) }
	fail := func(err error) {
		mu.Lock()
		if fatal == nil {
			fatal = err
		}
		mu.Unlock()
		cancelRun()
		finish()
	}
	for i := range shards {
		pending <- i
	}

	// One goroutine per lease slot (ShardsPerPeer slots per peer), each
	// pulling shards off the one shared queue — engine.Tasks' shared
	// counter, across peers.
	var wg sync.WaitGroup
	for _, pc := range peers {
		for s := 0; s < m.cfg.ShardsPerPeer; s++ {
			wg.Add(1)
			go func(pc *peerClient) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					case <-runCtx.Done():
						return
					case idx := <-pending:
						if pc.quarantined() {
							// Hand the lease back and retire this slot; when
							// no slots remain, no peer can make progress.
							pending <- idx
							mu.Lock()
							liveSlots--
							dead := liveSlots == 0
							mu.Unlock()
							if dead {
								fail(fmt.Errorf("server: all %d peers are unavailable", len(peers)))
							}
							return
						}
						rep, err := m.leaseShard(runCtx, pc, j, shards[idx], idx, len(shards), dsName, data, obs)
						if err != nil {
							pc.noteFailure()
							if runCtx.Err() != nil {
								return
							}
							mu.Lock()
							attempts[idx]++
							a := attempts[idx]
							mu.Unlock()
							if a > m.cfg.ShardRetries {
								fail(fmt.Errorf("server: shard %s failed after %d attempts: %w",
									shardLabel(idx, len(shards)), a, err))
								return
							}
							m.metrics.ShardsTotal.Inc("retried")
							obs.Emit(engine.Event{Algorithm: alg.Name(), Phase: engine.PhaseShardRetry,
								Shard: shardLabel(idx, len(shards)), Peer: pc.base})
							pending <- idx
							continue
						}
						pc.noteSuccess()
						mu.Lock()
						parts[idx] = rep
						remaining--
						last := remaining == 0
						mu.Unlock()
						if last {
							finish()
						}
					}
				}
			}(pc)
		}
	}

	select {
	case <-done:
	case <-ctx.Done():
	}
	cancelRun()
	wg.Wait()

	mu.Lock()
	ferr := fatal
	mu.Unlock()
	if ferr != nil && ctx.Err() == nil {
		return nil, ferr
	}

	if ctx.Err() != nil {
		// Canceled or timed out: salvage the completed shards, in shard
		// order, marked partial — same contract as a canceled local run.
		var got []*engine.Report
		for _, p := range parts {
			if p != nil {
				got = append(got, p)
			}
		}
		if len(got) == 0 {
			return &engine.Report{Algorithm: alg.Name(), Stopped: true}, nil
		}
		rep, err := plan.MergeShards(got)
		if err != nil {
			return nil, err
		}
		rep.Stopped = true
		return rep, nil
	}

	rep, err := plan.MergeShards(parts)
	if err != nil {
		return nil, err
	}
	return answer(rep)
}

// leaseShard runs one lease attempt: ship the dataset if the peer lacks
// it, submit the shard job, forward its events (tagged shard/peer), and
// fetch the partial report. A Stopped partial — the peer's deadline or
// shutdown truncated the shard — is a lease failure: merging it would
// silently break byte-identity with the single-node run.
func (m *Manager) leaseShard(ctx context.Context, pc *peerClient, j *Job, sh ShardSpec, idx, total int, dsName string, data []byte, obs engine.Observer) (*engine.Report, error) {
	if m.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.cfg.ShardTimeout)
		defer cancel()
	}
	label := shardLabel(idx, total)
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

	shard := sh
	spec := JobSpec{
		Algorithm: j.Spec.Algorithm,
		Dataset:   DatasetSpec{Catalog: dsName},
		Options:   j.Spec.Options,
		TimeoutMS: j.Spec.TimeoutMS,
		Shard:     &shard,
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
