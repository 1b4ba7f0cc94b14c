package core

import "repro/internal/obs"

// This file is the engines' observability wiring: every training engine,
// when built with Config.Obs, emits typed events onto the metrics bus —
// per-stage queue depth and staleness, busy-time accounting, lifetime
// completion counters, sync-policy clock — and publishes a KindEngineStats
// summary after each successful Drain, so the bus aggregator carries the
// same numbers Stats() reports and Stats() becomes one consumer of the
// engine's accounting among many.
//
// The topology follows the bus contract: one producer ring per emitting
// goroutine. Stage goroutines emit through their stage's producer
// (stageState.obs), drivers through their own; with no bus configured every
// producer is nil and each emit site is a single pointer check. Events
// never feed back into the training math — a bus-enabled run is
// bit-identical to a bus-disabled one (TestObsDoesNotPerturbTraining).
// The inference engine (infer.go, InferConfig.Obs) emits only completion
// events, one producer per replica.

// obsRingCap sizes the per-producer rings. Deep enough to ride out pump
// scheduling hiccups; overflow is drop-oldest, never blocking.
const obsRingCap = 512

// attachStageObs gives every stage its own producer ring. Each stage is
// driven by exactly one goroutine in every engine, so per-stage producers
// keep the rings single-producer.
func attachStageObs(bus *obs.Bus, stages []*stageState) {
	if bus == nil {
		return
	}
	for _, st := range stages {
		st.obs = bus.Producer(obsRingCap)
	}
}

// driverProducer returns a producer for engine-driver events (nil without a
// bus — the nil producer discards emits).
func driverProducer(bus *obs.Bus) *obs.Producer {
	if bus == nil {
		return nil
	}
	return bus.Producer(obsRingCap)
}

// emitResults publishes one KindSampleDone per completed result. Every
// event carries the engine's lifetime completed count at emit time (the
// aggregator keeps the latest, which is monotone) and the sample's loss.
func emitResults(p *obs.Producer, completed int, rs []*Result) {
	if p == nil || len(rs) == 0 {
		return
	}
	for _, r := range rs {
		p.Emit(obs.Event{Kind: obs.KindSampleDone, Stage: -1, Count: int64(completed), Value: r.Loss})
	}
}

// emitDrainSummary publishes the engine's quiesced accounting — the same
// snapshot Stats() returns — as a KindEngineStats event. Called only with
// the pipeline quiesced (end of a successful Drain).
func emitDrainSummary(p *obs.Producer, s Stats) {
	if p == nil {
		return
	}
	p.Emit(obs.Event{Kind: obs.KindEngineStats, Stage: -1, Value: s.Utilization, Count: int64(s.Completed)})
}
