#include "tbf/campaign/worker.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "tbf/campaign/codec.h"
#include "tbf/campaign/manifest.h"
#include "tbf/campaign/wire.h"
#include "tbf/sweep/sweep_runner.h"

namespace tbf::campaign {
namespace {

// Outcome of running one job on the job thread.
struct JobOutcome {
  bool ok = false;
  std::string blob;   // EncodeResults bytes on success.
  std::string error;  // Diagnostic on failure.
};

// Runs the scenario on a side thread while the caller heartbeats, so liveness
// signalling never depends on the (arbitrarily long) scenario itself. Returns false
// if the connection died while heartbeating.
bool RunJobWithHeartbeats(int fd, int64_t job_id, const CampaignJob& job,
                          int heartbeat_interval_ms, JobOutcome* outcome) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  std::thread runner([&] {
    JobOutcome local;
    try {
      const scenario::Results results =
          sweep::RunScenarioJob(ToScenarioJob(job));
      local.blob = EncodeResults(results);
      local.ok = true;
    } catch (const std::exception& e) {
      local.error = e.what();
    } catch (...) {
      local.error = "unknown exception";
    }
    std::lock_guard<std::mutex> lock(mu);
    *outcome = std::move(local);
    done = true;
    cv.notify_all();
  });

  bool connection_ok = true;
  {
    std::unique_lock<std::mutex> lock(mu);
    while (!done) {
      if (cv.wait_for(lock, std::chrono::milliseconds(heartbeat_interval_ms),
                      [&] { return done; })) {
        break;
      }
      lock.unlock();
      Message beat;
      beat.type = "heartbeat";
      beat.job = job_id;
      if (!SendLine(fd, FormatMessage(beat))) {
        connection_ok = false;  // Coordinator gone; finish the job, drop the result.
      }
      lock.lock();
    }
  }
  runner.join();
  return connection_ok;
}

enum class LineWait { kLine, kTimeout, kClosed };

// Waits up to `timeout_ms` for a full line (draining in WaitReadable-sized slices).
// kClosed on EOF/error/overlong once no buffered line is left.
LineWait WaitLine(int fd, LineReader* reader, int timeout_ms, std::string* line) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (reader->NextLine(line)) {
      return LineWait::kLine;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0 || !WaitReadable(fd, static_cast<int>(left.count()))) {
      return LineWait::kTimeout;
    }
    if (!reader->Drain(fd)) {
      // Surface any final buffered line.
      return reader->NextLine(line) ? LineWait::kLine : LineWait::kClosed;
    }
  }
}

// Blocks until a full line arrives. Returns false on EOF/error/overlong.
bool ReadLine(int fd, LineReader* reader, std::string* line) {
  for (;;) {
    const LineWait got = WaitLine(fd, reader, 1000, line);
    if (got != LineWait::kTimeout) {  // Idle is fine; the coordinator owns deadlines.
      return got == LineWait::kLine;
    }
  }
}

enum class SessionEnd { kShutdown, kDisconnected };

// One connection's lifetime: hello, then request/run/result until the coordinator
// says shutdown or the connection breaks.
SessionEnd RunSession(int fd, const WorkerConfig& config, FaultInjector* faults,
                      WorkerStats* stats) {
  Message hello;
  hello.type = "hello";
  hello.protocol = kProtocolVersion;
  hello.name = config.name;
  if (!SendLine(fd, FormatMessage(hello))) {
    return SessionEnd::kDisconnected;
  }

  LineReader reader;
  std::string line;
  bool have_reply = false;  // A line that arrived while backing off answers the request.
  for (;;) {
    if (!have_reply) {
      Message request;
      request.type = "request";
      if (!SendLine(fd, FormatMessage(request))) {
        return SessionEnd::kDisconnected;
      }
      if (!ReadLine(fd, &reader, &line)) {
        return SessionEnd::kDisconnected;
      }
    }
    have_reply = false;
    Message msg;
    if (!ParseMessage(line, &msg)) {
      return SessionEnd::kDisconnected;  // Treat protocol damage as a dead peer.
    }
    if (msg.type == "shutdown") {
      return SessionEnd::kShutdown;
    }
    if (msg.type == "wait") {
      // Back off with the socket watched, not asleep: the courtesy shutdown that ends
      // a campaign must end this worker now, not after the backoff.
      const LineWait got = WaitLine(fd, &reader, msg.ms > 0 ? msg.ms : 50, &line);
      if (got == LineWait::kClosed) {
        return SessionEnd::kDisconnected;
      }
      have_reply = got == LineWait::kLine;
      continue;
    }
    if (msg.type != "job") {
      return SessionEnd::kDisconnected;
    }

    // Validate the job payload exactly as the coordinator validates results: the
    // worker does not run bytes that fail the envelope or the schema.
    std::string blob;
    CampaignJob job;
    if (!HexDecode(msg.data, &blob) ||
        msg.len != static_cast<int64_t>(blob.size()) ||
        msg.crc != static_cast<int64_t>(Crc32(blob)) || !DecodeJob(blob, &job)) {
      return SessionEnd::kDisconnected;
    }

    const FaultInjector::Fault fault = faults->Decide(msg.job);
    if (fault == FaultInjector::Fault::kCrash) {
      ++stats->faults_injected;
      return SessionEnd::kDisconnected;  // Vanish mid-job, without a result.
    }
    if (fault == FaultInjector::Fault::kHang) {
      // Go silent: no heartbeats, no result. The coordinator's heartbeat deadline
      // fires and it drops us; we notice via the broken connection.
      ++stats->faults_injected;
      std::string discard;
      while (ReadLine(fd, &reader, &discard)) {
      }
      return SessionEnd::kDisconnected;
    }

    JobOutcome outcome;
    if (!RunJobWithHeartbeats(fd, msg.job, job, config.heartbeat_interval_ms,
                              &outcome)) {
      return SessionEnd::kDisconnected;
    }
    if (!outcome.ok) {
      ++stats->jobs_run;
      Message error;
      error.type = "error";
      error.job = msg.job;
      error.error = outcome.error;
      if (!SendLine(fd, FormatMessage(error))) {
        return SessionEnd::kDisconnected;
      }
      continue;
    }
    ++stats->jobs_run;

    // The envelope (len + crc) is computed over the honest bytes *before* any lying
    // mutation, so a corrupt fault ships a CRC mismatch and a truncate fault ships a
    // length mismatch - the two distinct validation failures the coordinator must
    // catch.
    Message result;
    result.type = "result";
    result.job = msg.job;
    result.len = static_cast<int64_t>(outcome.blob.size());
    result.crc = static_cast<int64_t>(Crc32(outcome.blob));
    if (fault == FaultInjector::Fault::kCorrupt) {
      ++stats->faults_injected;
      FaultInjector::Corrupt(&outcome.blob,
                             config.faults.seed ^ static_cast<uint64_t>(msg.job));
    } else if (fault == FaultInjector::Fault::kTruncate) {
      ++stats->faults_injected;
      FaultInjector::Truncate(&outcome.blob,
                              config.faults.seed ^ static_cast<uint64_t>(msg.job));
    }
    result.data = HexEncode(outcome.blob);
    if (!SendLine(fd, FormatMessage(result))) {
      return SessionEnd::kDisconnected;
    }
    ++stats->results_sent;
    if (fault == FaultInjector::Fault::kCorrupt ||
        fault == FaultInjector::Fault::kTruncate) {
      // The coordinator drops liars; reconnect as a fresh peer rather than waiting
      // to discover the closed socket mid-request.
      return SessionEnd::kDisconnected;
    }
  }
}

}  // namespace

WorkerStats RunWorker(const WorkerConfig& config) {
  WorkerStats stats;
  FaultInjector faults(config.faults);
  int consecutive_failures = 0;
  for (;;) {
    const int fd = ConnectUnix(config.socket_path);
    if (fd < 0) {
      if (++consecutive_failures > config.max_reconnects) {
        break;  // Coordinator gone for good (campaign presumably finished).
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.reconnect_delay_ms));
      continue;
    }
    consecutive_failures = 0;
    const SessionEnd end = RunSession(fd, config, &faults, &stats);
    ::close(fd);
    if (end == SessionEnd::kShutdown) {
      break;
    }
    ++stats.reconnects;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config.reconnect_delay_ms));
  }
  stats.faults_injected = faults.faults_injected();
  return stats;
}

}  // namespace tbf::campaign
