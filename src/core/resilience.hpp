// Job-level resilience primitives for the synthesis service substrate:
//
//   * RetryPolicy / BackoffPolicy — deterministic, data-expressed retry
//     with exponential backoff, layered per stage (FlowEngine) and per job
//     (core/jobqueue.hpp).  The policy is data, so tests and the future
//     daemon can reason about it without subclassing anything; the
//     statuses it retries are the taxonomy's (core::isRetryable).
//   * DeadlineBudget — wall-clock deadlines composed on top of PR-2's
//     deterministic work-unit EvalBudget: the budget keeps bit-identical
//     exhaustion points, the deadline adds a strided monotonic-clock check
//     so a livelocked evaluation cannot hang a worker past its allowance.
//   * BatchJournal — crash-consistent per-job progress journaling as JSON
//     lines, so a killed batch resumes from its last completed job.  Lines
//     carry an FNV-1a checksum and are accepted only when complete and
//     intact; a journal truncated at ANY byte boundary loads the longest
//     valid prefix (tests/resilience_test.cpp proves the property
//     exhaustively).
//
// Layering: below core/flow.hpp (which embeds a RetryPolicy in
// FlowOptions) and above only core/evalstatus.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "core/evalstatus.hpp"

namespace amsyn::core {

/// Exponential backoff: delayMs(retry) for retry = 1, 2, ... grows
/// initialMs * multiplier^(retry-1), capped at maxMs.  A pure function of
/// its argument, so two runs back off identically — which is what keeps
/// chaos soak runs bit-reproducible.
struct BackoffPolicy {
  std::uint64_t initialMs = 10;
  double multiplier = 2.0;
  std::uint64_t maxMs = 1000;

  std::uint64_t delayMs(std::size_t retry) const;

  static BackoffPolicy none() { return {0, 1.0, 0}; }
};

/// Data-expressed retry policy.  `maxAttempts` counts total attempts (1 =
/// no retries); which statuses are worth retrying is the taxonomy's call
/// (core::isRetryable), so OutOfMemory — whose retry would re-run the
/// allocation pattern that just failed — is never retried.
struct RetryPolicy {
  std::size_t maxAttempts = 1;
  BackoffPolicy backoff;

  /// Whether a failure with status `st` after `attemptsSoFar` total
  /// attempts should be retried.
  bool shouldRetry(EvalStatus st, std::size_t attemptsSoFar) const;

  static RetryPolicy none() { return {}; }
  /// Retry every transient (isRetryable) status up to `attempts` total
  /// attempts with the default backoff.
  static RetryPolicy transient(std::size_t attempts) {
    RetryPolicy p;
    p.maxAttempts = attempts;
    return p;
  }
};

/// Wall-clock deadline composed over the deterministic work-unit budget.
/// Construction arms the composed EvalBudget with `now + deadlineMs`
/// (deadlineMs = 0 leaves it a plain budget).  Two check cadences:
///   * expired() — one clock read; for coarse cooperative checkpoints
///     (FlowEngine stage boundaries, job-queue scheduling points),
///   * budget().consume() — the Newton-loop cancel points, where the clock
///     is read once per EvalBudget::kDeadlineCheckStride charges.
class DeadlineBudget {
 public:
  explicit DeadlineBudget(std::uint64_t workLimit = 0, std::uint64_t deadlineMs = 0)
      : budget_(workLimit), deadlineMs_(deadlineMs) {
    if (deadlineMs != 0) {
      // Saturate at INT64_MAX instead of overflowing now + ms * 10^6: a
      // deadline beyond ~292 years is "never", not a wrapped past instant.
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      const std::int64_t now = EvalBudget::nowNs();
      const std::uint64_t headroomMs = static_cast<std::uint64_t>(kMax - now) / 1'000'000;
      deadlineNs_ = deadlineMs > headroomMs
                        ? kMax
                        : now + static_cast<std::int64_t>(deadlineMs) * 1'000'000;
      budget_.setDeadlineNs(deadlineNs_);
    }
  }

  EvalBudget& budget() { return budget_; }
  const EvalBudget& budget() const { return budget_; }

  bool armed() const { return deadlineNs_ != 0; }
  std::int64_t deadlineNs() const { return deadlineNs_; }
  std::uint64_t deadlineMs() const { return deadlineMs_; }

  /// One clock read; latches the budget's deadline flag so a
  /// boundary-detected expiry and a cancel-point-detected expiry report the
  /// same exhaustionStatus().
  bool expired() { return armed() && budget_.checkDeadline(); }

 private:
  EvalBudget budget_;
  std::uint64_t deadlineMs_ = 0;
  std::int64_t deadlineNs_ = 0;
};

// ---------------------------------------------------------------------------
// Crash-consistent batch journaling

/// One completed job, as journaled and as reported: exactly the fields of
/// the per-job section of core::batchRunReportJson, so a resumed batch
/// reproduces the same final report without re-running journaled jobs.
struct JobJournalEntry {
  std::size_t job = 0;       ///< batch index
  std::size_t attempts = 1;  ///< total flow attempts the job consumed
  bool success = false;
  std::string topology;
  EvalStatus status = EvalStatus::Ok;  ///< FlowResult::failureStatus
  std::string failureReason;
  std::size_t redesigns = 0;

  bool operator==(const JobJournalEntry&) const = default;

  /// One self-delimiting JSON line (no trailing newline): flat object with
  /// a final "crc" field — FNV-1a 64 over every byte before `,"crc"` — so
  /// a torn or bit-rotted line is detectable without trusting the parser.
  std::string toLine() const;
  /// Parse one line; nullopt when incomplete, malformed, or checksum-bad.
  static std::optional<JobJournalEntry> parseLine(const std::string& line);
};

/// Append-only JSON-lines journal of completed jobs.  Protocol:
///   1. load(path) reads the longest valid prefix of complete, intact
///      lines (a crash can only tear the final line; anything after the
///      first invalid line is discarded),
///   2. the runner rewrites the journal to exactly that prefix (dropping a
///      torn tail so later appends cannot concatenate onto it), then
///   3. append() writes one line + '\n' per completed job and flushes.
/// Appends from multiple pool threads must be serialized by the caller
/// (core/jobqueue.cpp holds a mutex); entries may land in any job order.
class BatchJournal {
 public:
  explicit BatchJournal(std::string path) : path_(std::move(path)) {}

  /// Valid entries by job index (later duplicates win; none are produced
  /// by the runner, but a resumed journal is data, not gospel).  A missing
  /// file is an empty journal, not an error.
  static std::map<std::size_t, JobJournalEntry> load(const std::string& path);

  /// Rewrite the file to exactly `entries` (the compacted valid prefix).
  void rewrite(const std::map<std::size_t, JobJournalEntry>& entries) const;

  /// Append one completed job and flush.
  void append(const JobJournalEntry& entry) const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace amsyn::core
