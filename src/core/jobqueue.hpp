// Admission-controlled, resilient batch execution: the serving-scale layer
// in front of synthesizeBatch.  Where synthesizeBatch is a raw fan-out —
// every spec set runs, failures are whatever the flow reports — the
// JobQueue adds the service-substrate policies the roadmap's "synthesis as
// a service" direction needs:
//
//   * admission control — a bounded queue (maxPending) sheds overflow jobs
//     with the structured Rejected status instead of letting an oversized
//     batch exhaust the machine; shedding is a pure function of job index
//     and capacity, so it is identical on a resumed run,
//   * per-job retry with exponential backoff — a job whose flow
//     ends in a transient status (core::isRetryable) re-runs up to the
//     policy's attempt cap; injected batch faults draw fresh occurrences on
//     the retry (sim::BatchFaultScope persists across attempts),
//   * per-job wall-clock deadlines — ContextConfig::jobDeadlineMs of the
//     submitting context, inherited by every job's child context, so the
//     engine enforces them at stage boundaries and Newton cancel points,
//   * exception containment — anything thrown by a job task (including
//     std::bad_alloc, classified out_of_memory and never retried) becomes
//     a Failed record, never a lost batch,
//   * crash-consistent journaling — every completed job appends one
//     checksummed JSON line (core/resilience.hpp); a killed batch re-run
//     with resume=true skips journaled jobs and reproduces the exact same
//     batchRunReportJson as an uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/resilience.hpp"

namespace amsyn::core {

struct JobQueueOptions {
  /// Admission cap: at most this many jobs run per batch; the rest are shed
  /// with Rejected.  0 = unbounded (admit everything).
  std::size_t maxPending = 0;
  /// Per-job retry policy (whole-flow re-run).  Default: no retries.
  RetryPolicy retry;
  /// Journal file path; empty = no journaling.
  std::string journalPath;
  /// Load the journal first and skip jobs it already records.  Ignored when
  /// journalPath is empty.  false truncates any stale journal at start.
  bool resume = false;
  /// Base flow options; job i runs with batchItemOptions(flow, i) exactly
  /// like synthesizeBatch, so per-job results match the raw fan-out.
  FlowOptions flow;
  /// Stage-graph factory, called once per flow attempt.  Default (null):
  /// amplifierStageGraph().  Tests inject cheap fabricated graphs here so
  /// queue semantics (admission, retry, journaling) are provable without
  /// running the simulator.
  std::function<std::vector<std::unique_ptr<FlowStage>>()> stageFactory;
};

enum class JobState : std::uint8_t { Queued, Running, Succeeded, Failed, Rejected };

/// Stable lowercase name ("queued" / "running" / "succeeded" / ...).
const char* jobStateName(JobState s);

struct JobRecord {
  std::size_t index = 0;
  JobState state = JobState::Queued;
  std::size_t attempts = 0;  ///< flow attempts consumed (0 for shed jobs)
  FlowResult result;
  bool fromJournal = false;  ///< restored from the journal, not re-run
};

struct BatchRunResult {
  std::vector<JobRecord> jobs;  ///< one per input spec set, in input order
  std::size_t admitted = 0;     ///< jobs that ran this invocation
  std::size_t rejected = 0;     ///< jobs shed by admission control
  std::size_t retried = 0;      ///< extra flow attempts granted this invocation
  std::size_t resumed = 0;      ///< jobs restored from the journal
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions opts);

  /// Run the batch under the queue's policies.  Deterministic given the
  /// options and batch (modulo wall-clock deadlines): per-job results are
  /// bit-identical at any AMSYN_THREADS, cache on or off, and identical
  /// between a full run and a crash+resume.
  BatchRunResult run(const std::vector<sizing::SpecSet>& batch,
                     const circuit::Process& proc);

  const JobQueueOptions& options() const { return opts_; }

 private:
  JobRecord runOne(std::size_t index, const sizing::SpecSet& specs,
                   const circuit::Process& proc);

  JobQueueOptions opts_;
};

/// Structured JSON report of a batch run: per-job outcome (state, topology,
/// status, attempts, redesigns) plus aggregate counts.  Built without the
/// metrics/span snapshot and without the resumed flag, so an interrupted
/// batch resumed to completion emits the byte-identical report of an
/// uninterrupted run (tests/resilience_test.cpp asserts this).
std::string batchRunReportJson(const BatchRunResult& result);

/// Convenience wrapper: JobQueue(opts).run(batch, proc).
BatchRunResult runBatchResilient(const std::vector<sizing::SpecSet>& batch,
                                 const circuit::Process& proc,
                                 const JobQueueOptions& opts = {});

}  // namespace amsyn::core
