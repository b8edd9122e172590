package main

import (
	"reflect"
	"runtime"
	"time"

	"repro/internal/clustersim"
	"repro/internal/cone"
	"repro/internal/elab"
	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/obs"
	"repro/internal/timewarp"
)

// The probes exist only to attribute: they run in the traced run, after
// the pipeline and outside every end-to-end number. Spans named "probe.*"
// feed a ratio and no layer time.

// probeSubstrate times the partitioners' building blocks on one design:
// both hypergraph views, the cone start, and one fm.RefinePair pass from it.
func probeSubstrate(r *rep, parent open, ed *elab.Design, k int, buildFlat bool) error {
	var hier *hypergraph.H
	if _, err := r.tr.call("hypergraph.build_hier", parent, func() (err error) {
		hier, err = hypergraph.BuildHierarchical(ed)
		return err
	}); err != nil {
		return err
	}
	r.out.add("hypergraph.vertices_hier", float64(hier.NumVertices()))
	if buildFlat {
		var flat *hypergraph.H
		if _, err := r.tr.call("hypergraph.build_flat", parent, func() (err error) {
			flat, err = hypergraph.BuildFlat(ed)
			return err
		}); err != nil {
			return err
		}
		r.out.add("hypergraph.vertices_flat", float64(flat.NumVertices()))
	}
	var start *hypergraph.Assignment
	r.tr.call("cone.partition", parent, func() error {
		start = cone.Partition(ed, hier, k)
		return nil
	})
	var pass fm.Result
	r.tr.call("fm.refine_pair", parent, func() error {
		pass = fm.RefinePair(hier, start, 0, 1, nil, 1)
		return nil
	})
	r.out.add("fm.refine_pair_gain", float64(pass.GainTotal))
	return nil
}

// probePacked runs the cluster model scalar and packed on one
// configuration. The two Results must be identical; the packed run is
// recorded under packedSpan and returned.
func probePacked(r *rep, parent open, packedSpan string, cfg clustersim.Config) (*clustersim.Result, time.Duration, error) {
	var scalar, packed *clustersim.Result
	cfg.Packed = clustersim.PackedOff
	scalarWall, err := r.tr.call("probe.clustersim_scalar", parent, func() (err error) {
		scalar, err = clustersim.Run(cfg)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	cfg.Packed = clustersim.PackedOn
	packedWall, err := r.tr.call(packedSpan, parent, func() (err error) {
		packed, err = clustersim.Run(cfg)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	r.ck.check(reflect.DeepEqual(scalar, packed),
		"determinism: cluster model differs scalar %+v vs packed %+v", *scalar, *packed)
	r.out.add("clustersim.packed_ratio", scalarWall.Seconds()/packedWall.Seconds())
	return packed, packedWall, nil
}

func (w *kernelWorkload) probe(r *rep, run *kernelRun) error {
	p := r.tr.begin("probes", root, 0)
	defer r.tr.end(p)
	nl := run.ed.Netlist

	if err := probeSubstrate(r, p, run.ed, w.k, true); err != nil {
		return err
	}
	if _, _, err := probePacked(r, p, "probe.clustersim_packed", clustersim.Config{
		NL: nl, GateParts: run.parts.GateParts, K: w.k, Vectors: w.vectors(), Cycles: w.cycles / 10,
	}); err != nil {
		return err
	}

	if w.distWorkers > 0 {
		// The same partition through the in-process driver: the row
		// that prices the distributed one.
		var res *timewarp.Result
		inproc, err := r.tr.call("timewarp.run", p, func() (err error) {
			res, err = timewarp.Run(w.kernelConfig(nl, run.parts.GateParts))
			return err
		})
		if err != nil {
			return err
		}
		checkKernelRun(r.ck, w.id+" in-process", waveDigest(nl.POs, res.Observed), res, run.seqDigest, w.cycles)
		addKernelStats(r.out, res)
		r.out.add("timewarp.committed_events_per_s", run.seqEvents/inproc.Seconds())
		r.out.add("dist.vs_inproc_ratio", inproc.Seconds()/run.parWall.Seconds())
	} else {
		// The wide oracle: every flip-flop output, cycle by cycle.
		state := stateNets(nl)
		cfg := w.kernelConfig(nl, run.parts.GateParts)
		cfg.Observe = state
		var res *timewarp.Result
		if _, err := r.tr.call("probe.timewarp_observe_state", p, func() (err error) {
			res, err = timewarp.Run(cfg)
			return err
		}); err != nil {
			return err
		}
		seqState, _, _, err := w.sequential(r, p, "probe.sim_observe_state", state)
		if err != nil {
			return err
		}
		checkWaves(r.ck, w.id+" registered state", nl, state, res.Observed, seqState)
	}

	if w.obsProbe {
		walls := map[bool]time.Duration{}
		// Alternate which side goes first, as the paired sequential run does.
		for _, on := range []bool{r.index%2 == 0, r.index%2 != 0} {
			cfg := w.kernelConfig(nl, run.parts.GateParts)
			name := "probe.timewarp_obs_off"
			if on {
				cfg.Obs = obs.New(obs.Options{})
				name = "probe.timewarp_obs_on"
			}
			wall, err := r.tr.call(name, p, func() error {
				_, err := timewarp.Run(cfg)
				return err
			})
			if err != nil {
				return err
			}
			walls[on] = wall
		}
		r.out.add("obs.on_off_ratio", walls[true].Seconds()/walls[false].Seconds())
	}
	return nil
}

func (w *campaignWorkload) probe(r *rep, run *campaignRun) error {
	p := r.tr.begin("probes", root, 0)
	defer r.tr.end(p)

	t := w.targets[0]
	k := t.ks[len(t.ks)-1]
	if err := probeSubstrate(r, p, run.designs[0], k, false); err != nil {
		return err
	}

	// n-level at one worker against all of them: same answer required.
	nlevel := func(span string, workers int) (res *multilevel.Result, wall time.Duration, err error) {
		wall, err = r.tr.call(span, p, func() (err error) {
			res, err = multilevel.PartitionN(run.partitions[0].flat,
				multilevel.Options{K: k, B: w.b, Seed: partitionerSeed, Workers: workers})
			return err
		})
		return res, wall, err
	}
	one, oneWall, err := nlevel("probe.nlevel_workers_1", 1)
	if err != nil {
		return err
	}
	all, allWall, err := nlevel("probe.nlevel_workers_all", runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	r.ck.check(one.Cut == all.Cut && reflect.DeepEqual(one.GateParts, all.GateParts),
		"determinism: n-level cut %d at 1 worker, %d at %d workers", one.Cut, all.Cut, runtime.GOMAXPROCS(0))
	r.out.add("multilevel.nlevel_workers_ratio", oneWall.Seconds()/allWall.Seconds())

	// The model on the search's best point, outside presim.Heuristic
	// where the benchmark cannot see it.
	model, wall, err := probePacked(r, p, "clustersim.run", clustersim.Config{
		NL: run.presimDesign.Netlist, GateParts: run.best.GateParts, K: run.best.K,
		Vectors: w.vectors(), Cycles: w.presimCycles,
	})
	if err != nil {
		return err
	}
	r.ck.check(model.Speedup == run.best.Speedup,
		"determinism: best point modeled %v inside the search, %v outside", run.best.Speedup, model.Speedup)
	addModel(r.out, model, wall)
	return nil
}
