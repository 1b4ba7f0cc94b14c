// Package checkpoint serializes training state — network weights and, when
// provided, optimizer state — so long PB runs can stop and resume. The
// format is encoding/gob over a versioned envelope keyed by parameter name,
// which survives refactorings that keep parameter names stable and rejects
// mismatched architectures loudly.
//
// A pipelined-backpropagation engine has one optimizer per stage (each with
// its own velocity buffers, and — for the LWPw mitigation — its own
// previous-weight buffers) plus per-stage update counters that drive the
// learning-rate schedule. CapturePipeline/RestorePipeline snapshot all of
// it; the single-optimizer Capture/Restore remain for the SGDM reference
// trainers.
package checkpoint

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/nn"
	"repro/internal/optim"
)

// Version is bumped on incompatible format changes. Version 2 added the
// per-stage optimizer state; version 3 added replicated-pipeline (cluster)
// state. Version-1 (weights + one optimizer) and version-2 snapshots still
// restore.
const Version = 3

// StageState is the serialized optimizer state of one pipeline stage.
type StageState struct {
	// Velocities maps parameter name → momentum buffer. Parameters that
	// have not been updated yet are absent.
	Velocities map[string][]float64
	// PrevWeights maps parameter name → the weights before the stage's most
	// recent update. Only present when the optimizer tracks them (LWPw).
	PrevWeights map[string][]float64
	// Updates is the stage's applied-update counter (drives the per-stage
	// LR schedule position in the free-running engine).
	Updates int
}

// State is the serialized form of a training snapshot.
type State struct {
	Version int
	// Step is the global update step at save time (schedule position).
	Step int
	// Weights maps parameter name → values.
	Weights map[string][]float64
	// Velocities maps parameter name → momentum buffer (single-optimizer
	// trainers only; PB engines use Stages).
	Velocities map[string][]float64
	// Stages holds per-stage optimizer state, indexed like the pipeline.
	Stages []StageState
	// Cluster holds replicated-pipeline state (version 3+, cluster runs
	// only). When set, Weights/Stages mirror replica 0 (the canonical view)
	// and the full per-replica state lives in Cluster.Replicas.
	Cluster *ClusterState
	// Meta carries free-form run metadata (method name, scale, seed...).
	Meta map[string]string
}

// ReplicaState is the serialized training state of one pipeline replica of a
// cluster: its weights, per-stage optimizer state and schedule position.
type ReplicaState struct {
	Weights map[string][]float64
	Stages  []StageState
	Step    int
}

// ClusterState is the serialized state of a replicated-pipeline cluster
// (core.Cluster): per-replica pipelines plus the sync clock and shard cursor,
// so a restored cluster resumes its averaging cadence and round-robin routing
// exactly where it stopped.
type ClusterState struct {
	// Policy and Interval identify the weight-sync policy; restore refuses a
	// mismatch (the sync cadence is part of the algorithm).
	Policy   string
	Interval int
	// Replicas holds each pipeline's full state, replica-indexed.
	Replicas []ReplicaState
	// Syncs counts completed sync operations (the sync clock); Submitted is
	// the global sample cursor (next replica = Submitted mod R); LastSync is
	// the cursor at the most recent sync.
	Syncs     int
	Submitted int
	LastSync  int
}

// PipelineTrainer is the engine surface CapturePipeline/RestorePipeline
// need: stage-indexed access to parameters, optimizers and update counters,
// plus the global schedule position. *core.PBTrainer implements it; the
// pipeline must be quiesced (drained) around both calls.
type PipelineTrainer interface {
	NumStages() int
	StageParams(i int) []*nn.Param
	StageOptimizer(i int) *optim.Momentum
	StageUpdates(i int) int
	SetStageUpdates(i, updates int)
	UpdateStep() int
	SetUpdateStep(step int)
}

// Capture snapshots a network (and optionally one optimizer's velocities;
// pass nil to skip) into a State. It never mutates the optimizer: only
// velocities that exist are captured.
func Capture(net *nn.Network, opt *optim.Momentum, step int, meta map[string]string) (*State, error) {
	st := &State{
		Version:    Version,
		Step:       step,
		Weights:    map[string][]float64{},
		Velocities: map[string][]float64{},
		Meta:       meta,
	}
	for _, p := range net.Params() {
		if _, dup := st.Weights[p.Name]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate parameter name %q", p.Name)
		}
		st.Weights[p.Name] = p.Snapshot()
		if opt != nil {
			if v := opt.VelIfTracked(p); v != nil {
				vc := make([]float64, len(v))
				copy(vc, v)
				st.Velocities[p.Name] = vc
			}
		}
	}
	return st, nil
}

// CapturePipeline snapshots a network plus the per-stage optimizer state of
// a pipelined-backpropagation trainer: velocities, previous weights (LWPw)
// and update counters for every stage, and the global schedule position.
// The pipeline must be quiesced.
func CapturePipeline(net *nn.Network, tr PipelineTrainer, meta map[string]string) (*State, error) {
	st, err := Capture(net, nil, tr.UpdateStep(), meta)
	if err != nil {
		return nil, err
	}
	st.Stages = captureStages(tr)
	return st, nil
}

// captureStages copies a trainer's per-stage optimizer state.
func captureStages(tr PipelineTrainer) []StageState {
	stages := make([]StageState, tr.NumStages())
	for i := range stages {
		ss := StageState{
			Velocities:  map[string][]float64{},
			PrevWeights: map[string][]float64{},
			Updates:     tr.StageUpdates(i),
		}
		opt := tr.StageOptimizer(i)
		for _, p := range tr.StageParams(i) {
			if v := opt.VelIfTracked(p); v != nil {
				vc := make([]float64, len(v))
				copy(vc, v)
				ss.Velocities[p.Name] = vc
			}
			if w := opt.PrevIfTracked(p); w != nil {
				wc := make([]float64, len(w))
				copy(wc, w)
				ss.PrevWeights[p.Name] = wc
			}
		}
		stages[i] = ss
	}
	return stages
}

// ClusterTrainer is the engine surface CaptureCluster/RestoreCluster need:
// replica-indexed access to networks and pipeline trainers plus the sync
// clock and shard cursor. *core.Cluster implements it; every replica must be
// quiesced around both calls. ReplicaEngine is typed any so the core package
// needs no checkpoint import — the returned engine must implement
// PipelineTrainer (all built-in engines do).
type ClusterTrainer interface {
	ReplicaCount() int
	ReplicaNet(i int) *nn.Network
	ReplicaEngine(i int) any
	PolicyName() string
	PolicyInterval() int
	ClusterCursor() (submitted, syncs, lastSync int)
	SetClusterCursor(submitted, syncs, lastSync int)
}

// replicaPipeline asserts replica i's engine down to the PipelineTrainer
// capture/restore surface.
func replicaPipeline(ct ClusterTrainer, i int) (PipelineTrainer, error) {
	tr, ok := ct.ReplicaEngine(i).(PipelineTrainer)
	if !ok {
		return nil, fmt.Errorf("checkpoint: cluster replica %d engine (%T) does not support checkpointing", i, ct.ReplicaEngine(i))
	}
	return tr, nil
}

// CaptureCluster snapshots a replicated-pipeline cluster: every replica's
// weights and per-stage optimizer state, the sync clock and the shard
// cursor. The top-level Weights/Stages/Step mirror replica 0 — the canonical
// view — so generic tooling can still read a cluster snapshot. All replicas
// must be quiesced.
func CaptureCluster(ct ClusterTrainer, meta map[string]string) (*State, error) {
	tr0, err := replicaPipeline(ct, 0)
	if err != nil {
		return nil, err
	}
	st, err := CapturePipeline(ct.ReplicaNet(0), tr0, meta)
	if err != nil {
		return nil, err
	}
	submitted, syncs, lastSync := ct.ClusterCursor()
	cs := &ClusterState{
		Policy:    ct.PolicyName(),
		Interval:  ct.PolicyInterval(),
		Replicas:  make([]ReplicaState, ct.ReplicaCount()),
		Syncs:     syncs,
		Submitted: submitted,
		LastSync:  lastSync,
	}
	for i := 0; i < ct.ReplicaCount(); i++ {
		tr, err := replicaPipeline(ct, i)
		if err != nil {
			return nil, err
		}
		rst, err := Capture(ct.ReplicaNet(i), nil, tr.UpdateStep(), nil)
		if err != nil {
			return nil, err
		}
		cs.Replicas[i] = ReplicaState{
			Weights: rst.Weights,
			Stages:  captureStages(tr),
			Step:    tr.UpdateStep(),
		}
	}
	st.Cluster = cs
	return st, nil
}

// checkVersion accepts the current version and the still-readable versions
// 1 and 2.
func checkVersion(v int) error {
	if v < 1 || v > Version {
		return fmt.Errorf("checkpoint: version %d, want ≤ %d", v, Version)
	}
	return nil
}

// restoreWeights loads the weight map into the network's parameters.
func restoreWeights(st *State, net *nn.Network) error {
	for _, p := range net.Params() {
		w, ok := st.Weights[p.Name]
		if !ok {
			return fmt.Errorf("checkpoint: missing parameter %q", p.Name)
		}
		if len(w) != p.W.Size() {
			return fmt.Errorf("checkpoint: parameter %q has %d values, want %d", p.Name, len(w), p.W.Size())
		}
		p.SetData(w)
	}
	return nil
}

// RestoreForward loads only the weights of a snapshot into net — the
// read-only view an inference engine needs. It accepts every checkpoint
// version (v1 single-optimizer, v2 pipeline, v3 cluster: the top-level
// Weights always mirror the canonical replica) and never touches optimizer
// or schedule state.
func RestoreForward(st *State, net *nn.Network) error {
	if err := checkVersion(st.Version); err != nil {
		return err
	}
	return restoreWeights(st, net)
}

// LoadForward reads a snapshot of any supported version from path and
// restores only its weights into net (see RestoreForward).
func LoadForward(path string, net *nn.Network) (*State, error) {
	st, err := readFile(path)
	if err != nil {
		return nil, err
	}
	if err := RestoreForward(st, net); err != nil {
		return nil, err
	}
	return st, nil
}

// Restore loads a State into a network (and optionally optimizer
// velocities). Every network parameter must be present with matching size.
func Restore(st *State, net *nn.Network, opt *optim.Momentum) error {
	if err := checkVersion(st.Version); err != nil {
		return err
	}
	if err := restoreWeights(st, net); err != nil {
		return err
	}
	if opt != nil {
		for _, p := range net.Params() {
			if v, ok := st.Velocities[p.Name]; ok {
				if len(v) != p.W.Size() {
					return fmt.Errorf("checkpoint: velocity %q has %d values, want %d", p.Name, len(v), p.W.Size())
				}
				copy(opt.Vel(p), v)
			}
		}
	}
	return nil
}

// RestorePipeline loads a pipeline snapshot into a freshly constructed
// trainer: network weights, per-stage velocities, previous weights and
// update counters. The trainer must have the same pipeline decomposition
// (stage count and parameter names) as the captured one; nothing is mutated
// on error.
func RestorePipeline(st *State, net *nn.Network, tr PipelineTrainer) error {
	if err := checkVersion(st.Version); err != nil {
		return err
	}
	if st.Cluster != nil {
		return fmt.Errorf("checkpoint: snapshot holds %d-replica cluster state (policy %q); restore it with a cluster engine (RestoreCluster)",
			len(st.Cluster.Replicas), st.Cluster.Policy)
	}
	if len(st.Stages) == 0 {
		return fmt.Errorf("checkpoint: snapshot has no per-stage state (version %d, single-optimizer format?); use Restore/Load for it", st.Version)
	}
	if err := validatePipelineState(st.Weights, st.Stages, net, tr); err != nil {
		return err
	}
	applyPipelineState(st.Weights, st.Stages, st.Step, net, tr)
	return nil
}

// validatePipelineState checks a pipeline snapshot against a trainer without
// mutating anything, so a rejected snapshot leaves the trainer untouched.
func validatePipelineState(weights map[string][]float64, stages []StageState, net *nn.Network, tr PipelineTrainer) error {
	if len(stages) != tr.NumStages() {
		return fmt.Errorf("checkpoint: snapshot has %d stages, trainer has %d", len(stages), tr.NumStages())
	}
	for _, p := range net.Params() {
		w, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("checkpoint: missing parameter %q", p.Name)
		}
		if len(w) != p.W.Size() {
			return fmt.Errorf("checkpoint: parameter %q has %d values, want %d", p.Name, len(w), p.W.Size())
		}
	}
	for i := range stages {
		// Every saved buffer must belong to a parameter of the SAME stage:
		// a shifted stage boundary (same depth, different partitioning)
		// would otherwise restore "successfully" with silently zeroed
		// momentum for the moved parameters.
		names := make(map[string]int, len(tr.StageParams(i)))
		for _, p := range tr.StageParams(i) {
			names[p.Name] = p.W.Size()
		}
		for name, v := range stages[i].Velocities {
			size, ok := names[name]
			if !ok {
				return fmt.Errorf("checkpoint: stage %d holds velocity for %q, which is not in that stage (different partitioning?)", i, name)
			}
			if len(v) != size {
				return fmt.Errorf("checkpoint: stage %d velocity %q has %d values, want %d", i, name, len(v), size)
			}
		}
		for name, w := range stages[i].PrevWeights {
			size, ok := names[name]
			if !ok {
				return fmt.Errorf("checkpoint: stage %d holds prev weights for %q, which is not in that stage (different partitioning?)", i, name)
			}
			if len(w) != size {
				return fmt.Errorf("checkpoint: stage %d prev weights %q has %d values, want %d", i, name, len(w), size)
			}
		}
	}
	return nil
}

// applyPipelineState loads validated pipeline state into a trainer.
func applyPipelineState(weights map[string][]float64, stages []StageState, step int, net *nn.Network, tr PipelineTrainer) {
	for _, p := range net.Params() {
		p.SetData(weights[p.Name])
	}
	for i := range stages {
		ss := stages[i]
		opt := tr.StageOptimizer(i)
		for _, p := range tr.StageParams(i) {
			if v, ok := ss.Velocities[p.Name]; ok {
				copy(opt.Vel(p), v)
			}
			if w, ok := ss.PrevWeights[p.Name]; ok {
				copy(opt.Prev(p), w)
			}
		}
		tr.SetStageUpdates(i, ss.Updates)
	}
	tr.SetUpdateStep(step)
}

// RestoreCluster loads a cluster snapshot into a freshly constructed (or
// drained) cluster: every replica's weights, per-stage optimizer state and
// schedule position, plus the sync clock and shard cursor. The cluster must
// match the snapshot's replica count, sync policy and interval — the sync
// cadence is part of the algorithm, not a runtime preference. Every replica
// is validated before anything is mutated.
func RestoreCluster(st *State, ct ClusterTrainer) error {
	if err := checkVersion(st.Version); err != nil {
		return err
	}
	cs := st.Cluster
	if cs == nil {
		return fmt.Errorf("checkpoint: snapshot has no cluster state (version %d single-pipeline snapshot?); use RestorePipeline for it", st.Version)
	}
	if len(cs.Replicas) != ct.ReplicaCount() {
		return fmt.Errorf("checkpoint: snapshot has %d replicas, cluster has %d", len(cs.Replicas), ct.ReplicaCount())
	}
	if cs.Policy != ct.PolicyName() || cs.Interval != ct.PolicyInterval() {
		return fmt.Errorf("checkpoint: snapshot was taken under policy %q (interval %d), cluster runs %q (interval %d)",
			cs.Policy, cs.Interval, ct.PolicyName(), ct.PolicyInterval())
	}
	trs := make([]PipelineTrainer, len(cs.Replicas))
	for i := range cs.Replicas {
		tr, err := replicaPipeline(ct, i)
		if err != nil {
			return err
		}
		if err := validatePipelineState(cs.Replicas[i].Weights, cs.Replicas[i].Stages, ct.ReplicaNet(i), tr); err != nil {
			return fmt.Errorf("checkpoint: cluster replica %d: %w", i, err)
		}
		trs[i] = tr
	}
	for i, rs := range cs.Replicas {
		applyPipelineState(rs.Weights, rs.Stages, rs.Step, ct.ReplicaNet(i), trs[i])
	}
	ct.SetClusterCursor(cs.Submitted, cs.Syncs, cs.LastSync)
	return nil
}

// ReplicaPipeline extracts replica i of a cluster snapshot as a standalone
// single-pipeline snapshot (restorable with RestorePipeline): the replica's
// weights, per-stage optimizer state and schedule position, with the cluster
// envelope dropped. This is the elastic-downsize bridge — a replica leaving a
// cluster carries its full training state, so a fresh smaller cluster (or a
// bare engine) seeded from it continues exactly where that replica stood.
// The returned State aliases st's buffers; restores only read them.
func ReplicaPipeline(st *State, i int) (*State, error) {
	if err := checkVersion(st.Version); err != nil {
		return nil, err
	}
	cs := st.Cluster
	if cs == nil {
		return nil, fmt.Errorf("checkpoint: snapshot has no cluster state (version %d single-pipeline snapshot?)", st.Version)
	}
	if i < 0 || i >= len(cs.Replicas) {
		return nil, fmt.Errorf("checkpoint: replica %d out of range [0,%d)", i, len(cs.Replicas))
	}
	rs := cs.Replicas[i]
	return &State{
		Version: st.Version,
		Step:    rs.Step,
		Weights: rs.Weights,
		Stages:  rs.Stages,
		Meta:    st.Meta,
	}, nil
}

// Write encodes a State to w.
func Write(w io.Writer, st *State) error {
	return gob.NewEncoder(w).Encode(st)
}

// Read decodes a State from r.
func Read(r io.Reader) (*State, error) {
	var st State
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &st, nil
}

// Save captures and writes a snapshot to path atomically (tmp + rename).
func Save(path string, net *nn.Network, opt *optim.Momentum, step int, meta map[string]string) error {
	st, err := Capture(net, opt, step, meta)
	if err != nil {
		return err
	}
	return writeFile(path, st)
}

// SavePipeline captures and writes a pipeline snapshot atomically.
func SavePipeline(path string, net *nn.Network, tr PipelineTrainer, meta map[string]string) error {
	st, err := CapturePipeline(net, tr, meta)
	if err != nil {
		return err
	}
	return writeFile(path, st)
}

// SaveCluster captures and writes a cluster snapshot atomically.
func SaveCluster(path string, ct ClusterTrainer, meta map[string]string) error {
	st, err := CaptureCluster(ct, meta)
	if err != nil {
		return err
	}
	return writeFile(path, st)
}

// LoadCluster reads a cluster snapshot from path and restores it.
func LoadCluster(path string, ct ClusterTrainer) (*State, error) {
	st, err := readFile(path)
	if err != nil {
		return nil, err
	}
	if err := RestoreCluster(st, ct); err != nil {
		return nil, err
	}
	return st, nil
}

// writeFile writes a State to path via tmp + rename.
func writeFile(path string, st *State) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := Write(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a snapshot from path and restores it.
func Load(path string, net *nn.Network, opt *optim.Momentum) (*State, error) {
	st, err := readFile(path)
	if err != nil {
		return nil, err
	}
	if err := Restore(st, net, opt); err != nil {
		return nil, err
	}
	return st, nil
}

// LoadPipeline reads a pipeline snapshot from path and restores it.
func LoadPipeline(path string, net *nn.Network, tr PipelineTrainer) (*State, error) {
	st, err := readFile(path)
	if err != nil {
		return nil, err
	}
	if err := RestorePipeline(st, net, tr); err != nil {
		return nil, err
	}
	return st, nil
}

// readFile reads a State from path.
func readFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
