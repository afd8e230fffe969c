// Host-speed probes: fixed units of work that call no code of the library
// under test, so their durations track only how fast this host is running
// right now. HostProbe is matched to the simulator, SortProbe to the
// service's jobs.
//
// HostProbe's work imitates the simulator's own hot loop: a move-to-front
// LRU scan over ~4 MB of set-associative tags, fed by a mixed sequential and
// random line stream. Host drift (frequency changes, neighbours on a shared
// machine, cache pressure) slows the probe and the simulator alike, so
// dividing an op's host time by the probe times taken just before and just
// after it removes most of that drift. Corrected times read as seconds at
// the reference host speed kProbeRefS.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Probe time on the reference host (Intel Xeon, Sapphire Rapids family,
/// 2.0 GHz, 4 vCPUs, shared machine, quiet period): the median of 300 probe
/// runs. Recorded once; changing it rescales every corrected time.
inline constexpr double kProbeRefS = 0.0270;

class HostProbe {
 public:
  HostProbe();

  /// Run the probe once and return its host seconds. The work is identical
  /// on every call: the tag array and the line stream restart each time.
  double run();

  /// Every probe time measured so far, in seconds.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<std::uint64_t> tags_;
  std::vector<double> samples_;
  std::uint64_t hits_ = 0;  ///< kept so the scan cannot be optimised away
};

/// `raw_s` rescaled to the reference host speed, given the probe times
/// measured just before and just after it.
inline double Corrected(double raw_s, double probe_before_s,
                        double probe_after_s) {
  return raw_s * kProbeRefS / (0.5 * (probe_before_s + probe_after_s));
}

/// SortProbe time on the reference host at the speed kProbeRefS stands for:
/// its median over five service runs in which HostProbe's median read
/// 27.6 ms. Recorded once; changing it rescales every corrected service time.
inline constexpr double kSortProbeRefS = 0.0170;

/// The service's probe, shaped like the life of one of its jobs: a thread
/// left idle for 1 ms is woken to std::sort a copy of 16K, 32K or 64K
/// pseudo-random doubles (the sizes of the service mix's jobs, each
/// L2-resident like theirs), and the caller, blocked meanwhile, is woken
/// when it is done; six such rounds, timed from each wake-up request to
/// the caller's wake-up. At the service's low offered load a job's latency
/// is mostly a worker's wake-up and the job's own compute, so it tracks
/// this probe where it does not track HostProbe. One job at a time: run
/// on as many threads as there are workers, sorting at once, it also
/// measured CPU contention the jobs never see.
class SortProbe {
 public:
  SortProbe();

  /// Run the probe once and return its host seconds. The work is identical
  /// on every call.
  double run();

  /// Every probe time measured so far, in seconds.
  const std::vector<double>& samples() const { return samples_; }
  /// The sorting alone, timed by the woken thread, per probe run.
  const std::vector<double>& sort_samples() const { return sort_samples_; }

 private:
  std::vector<double> input_;
  std::vector<double> buffer_;
  std::vector<double> samples_;
  std::vector<double> sort_samples_;
};

}  // namespace perfbench
