package main

import (
	"fmt"
	"time"

	"activermt/internal/alloc"
	"activermt/internal/client"
	"activermt/internal/switchd"
)

// Allocator replay: the controller's admissions and releases, re-run in
// order on a fresh allocator with the constraints each tenant's client
// put on the wire, so Allocate and Release can be timed outside the
// simulation. Outcomes and final placements must match the controller's.

// serviceRef names the client whose service a FID's admissions used.
type serviceRef struct {
	fid uint16
	cl  *client.Client
}

// allocLog is one controller's provisioning history.
type allocLog struct {
	name   string
	ctrl   *switchd.Controller
	cfg    alloc.Config
	lookup func(fid uint16) *serviceRef
	// since is when the measured schedule started: records from before it
	// belong to set-up.
	since time.Duration
}

// allocStats is what the replay measured.
type allocStats struct {
	allocateUS, releaseUS         []float64 // per replayed call
	admits                        int       // admission records (granted or refused)
	mutants, reallocated, tableOp int
	granted                       int
	snapshotWaitMS                []float64
	// inRunNs is the replayed allocator time of the records made during
	// the measured schedule, averaged over rounds.
	inRunNs float64
}

// wireConstraints reproduces what the controller decoded from the
// client's allocation request.
func wireConstraints(cl *client.Client) (*alloc.Constraints, error) {
	cons, err := cl.Service().Constraints()
	if err != nil {
		return nil, err
	}
	req, err := cons.ToRequest()
	if err != nil {
		return nil, err
	}
	wire, err := alloc.FromRequest(req)
	if err != nil {
		return nil, err
	}
	wire.Name = "fid"
	return wire, nil
}

// replayAlloc replays every log rounds times (a fresh allocator each
// round) and checks the first round against the controllers.
func replayAlloc(logs []allocLog, rounds int) (*allocStats, error) {
	st := &allocStats{}
	for _, lg := range logs {
		cons := map[uint16]*alloc.Constraints{}
		for _, rec := range lg.ctrl.Records {
			if rec.Release || cons[rec.FID] != nil {
				continue
			}
			ref := lg.lookup(rec.FID)
			if ref == nil {
				return nil, fmt.Errorf("alloc replay %s: no service for fid %d", lg.name, rec.FID)
			}
			c, err := wireConstraints(ref.cl)
			if err != nil {
				return nil, fmt.Errorf("alloc replay %s fid %d: %w", lg.name, rec.FID, err)
			}
			cons[rec.FID] = c
		}
		for round := 0; round < rounds; round++ {
			al, err := alloc.New(lg.cfg)
			if err != nil {
				return nil, err
			}
			for _, rec := range lg.ctrl.Records {
				if rec.Readmit || rec.Sweep || rec.Evict || rec.Defrag {
					return nil, fmt.Errorf("alloc replay %s: unexpected %+v record", lg.name, rec)
				}
				inRun := rec.Start >= lg.since
				if rec.Release {
					start := time.Now()
					_, err := al.Release(rec.FID)
					d := time.Since(start)
					st.releaseUS = append(st.releaseUS, float64(d.Nanoseconds())/1e3)
					if inRun {
						st.inRunNs += float64(d.Nanoseconds()) / float64(rounds)
					}
					if round == 0 && (err != nil) != rec.Failed {
						return nil, fmt.Errorf("alloc replay %s: release fid %d err=%v, controller failed=%v", lg.name, rec.FID, err, rec.Failed)
					}
					continue
				}
				c := cons[rec.FID]
				if len(c.Accesses) == 0 {
					continue // stateless: the controller bypasses the allocator
				}
				start := time.Now()
				res, err := al.Allocate(rec.FID, c)
				d := time.Since(start)
				st.allocateUS = append(st.allocateUS, float64(d.Nanoseconds())/1e3)
				if inRun {
					st.inRunNs += float64(d.Nanoseconds()) / float64(rounds)
				}
				if round > 0 {
					continue
				}
				failed := err != nil || res.Failed
				if failed != rec.Failed {
					return nil, fmt.Errorf("alloc replay %s: fid %d failed=%v, controller failed=%v", lg.name, rec.FID, failed, rec.Failed)
				}
				st.admits++
				if res != nil {
					st.mutants += res.MutantsTotal
				}
				if !failed {
					if len(res.Reallocated) != rec.Reallocated {
						return nil, fmt.Errorf("alloc replay %s: fid %d reallocated %d tenants, controller %d", lg.name, rec.FID, len(res.Reallocated), rec.Reallocated)
					}
					st.granted++
					st.reallocated += rec.Reallocated
					st.tableOp += rec.TableOps
					st.snapshotWaitMS = append(st.snapshotWaitMS, float64(rec.SnapshotWait)/float64(time.Millisecond))
				}
			}
			if round == 0 {
				if err := samePlacements(lg, al); err != nil {
					return nil, err
				}
			}
		}
	}
	return st, nil
}

// samePlacements compares the replayed allocator's books with the
// controller's for every resident tenant.
func samePlacements(lg allocLog, al *alloc.Allocator) error {
	live := lg.ctrl.Allocator()
	fids := live.FIDs()
	if got := al.FIDs(); len(got) != len(fids) {
		return fmt.Errorf("alloc replay %s: %d resident tenants, controller has %d", lg.name, len(got), len(fids))
	}
	for _, fid := range fids {
		want, _ := live.PlacementFor(fid)
		got, ok := al.PlacementFor(fid)
		if !ok || got.MutantIdx != want.MutantIdx || len(got.Accesses) != len(want.Accesses) {
			return fmt.Errorf("alloc replay %s: fid %d placement differs from the controller's", lg.name, fid)
		}
		for i := range got.Accesses {
			if got.Accesses[i] != want.Accesses[i] {
				return fmt.Errorf("alloc replay %s: fid %d access %d at %+v, controller %+v", lg.name, fid, i, got.Accesses[i], want.Accesses[i])
			}
		}
	}
	return nil
}
