// fides_perf — the wall-clock benchmark program for Fides.
//
// Runs one named workload in a single process and prints, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Every call
// into the library's public API is timed from outside (Cluster construction,
// YcsbWorkload::run_transaction, BatchBuilder, Cluster::run_blocks /
// run_group_blocks, the Auditor phases), and the public counters the library
// already exposes (Transport::Stats, RoundMetrics, GroupRunResult) are read
// around them. Nothing inside src/ is instrumented.
//
//   fides_perf --workload <global-closed|group-spec|hotspot-audit>
//              --seed <n> --seconds <s> --trace <0|1>
//              [--tiny] [--force-check-failure] [--trace-out <file>]
//              [--commit <id>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits the timed loop
// into an untraced and a traced half, records spans around every public call
// and around the layer probes, and reports the per-layer metrics. See
// perfbench/README.md for the workloads and what each metric should move.
#include <cpuid.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/auditor.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "fides/cluster.hpp"
#include "merkle/proof.hpp"
#include "ordserv/group_engine.hpp"
#include "ledger/chain_validation.hpp"
#include "store/item.hpp"
#include "txn/occ.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace fides;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Heap bytes in use, over all malloc arenas. (Peak RSS would not do: the
/// kernel carries ru_maxrss across exec, so it includes the launcher's.)
double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// --- Tracing -----------------------------------------------------------------

/// In-memory span recorder for the benchmark's own calls. Single-threaded:
/// every span is opened and closed on the main thread, so the
/// parent is simply the innermost open span. Spans are written out when the
/// run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us{0};
    double end_us{0};
    int parent{-1};
  };

  void set_enabled(bool on) { enabled_ = on; }

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_us(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  /// Total duration and count of every span with this name.
  std::pair<double, std::size_t> total_us(const std::string& name) const {
    double total = 0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
      if (s.name == name) {
        total += s.end_us - s.start_us;
        ++n;
      }
    }
    return {total, n};
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: count, total duration, and self time (duration minus
  /// the time covered by direct children).
  struct Summary {
    std::size_t count{0};
    double total_us{0};
    double self_us{0};
  };
  std::map<std::string, Summary> summarize() const {
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double dur = spans_[i].end_us - spans_[i].start_us;
      Summary& sum = out[spans_[i].name];
      ++sum.count;
      sum.total_us += dur;
      sum.self_us += dur - child_us[i];
    }
    return out;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  bool enabled_{false};
  Clock::time_point epoch_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// --- Workloads -----------------------------------------------------------------

struct Spec {
  std::string name;
  std::uint32_t servers{0};
  std::uint32_t items_per_shard{0};
  std::uint32_t depth{1};
  bool speculate{false};
  /// Block workloads: txns per window, one block's worth (BatchBuilder
  /// capacity). Group workload: txns per round.
  std::size_t block_txns{0};
  workload::WorkloadConfig ycsb;
  /// Audit the whole log after the loop. Only hotspot-audit does: the
  /// Auditor validates global (all-server co-signed) logs, and group-commit
  /// logs carry group co-signs over unchained bytes, which it rejects.
  bool audit{false};
  // Group workload (run_group_blocks).
  bool group{false};
  std::uint32_t groups{0};
  double bridge_frac{0};
  std::size_t rounds_per_window{0};
};

Spec make_spec(const std::string& name, bool tiny) {
  Spec s;
  s.name = name;
  if (name == "global-closed") {
    s.servers = tiny ? 4 : 6;
    s.items_per_shard = tiny ? 500 : 10000;
    s.block_txns = tiny ? 20 : 100;
    s.ycsb.ops_per_txn = 5;
    s.ycsb.distribution = workload::Distribution::kUniform;
    s.ycsb.disjoint_batches = true;
  } else if (name == "group-spec") {
    s.servers = 8;
    s.items_per_shard = tiny ? 256 : 2048;
    s.depth = 8;
    s.speculate = true;
    s.block_txns = 4;
    s.group = true;
    s.groups = 4;
    s.bridge_frac = 0.1;
    s.rounds_per_window = 8;
  } else if (name == "hotspot-audit") {
    s.servers = 5;
    s.items_per_shard = tiny ? 2000 : 100000;
    s.block_txns = tiny ? 20 : 100;
    s.ycsb.ops_per_txn = 5;
    s.ycsb.distribution = workload::Distribution::kHotspot;
    s.ycsb.hot_set_fraction = 0.01;
    s.ycsb.hot_op_fraction = 0.5;
    s.ycsb.read_only_fraction = 0.5;
    s.ycsb.disjoint_batches = false;
    s.audit = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

ClusterConfig cluster_config(const Spec& spec, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.num_servers = spec.servers;
  cfg.items_per_shard = spec.items_per_shard;
  cfg.max_batch_size = spec.block_txns;
  cfg.seed = seed;
  cfg.num_threads = 4;
  cfg.pipeline_depth = spec.depth;
  cfg.speculate = spec.speculate;
  cfg.sign_data_path = false;
  cfg.batch_verify = true;
  return cfg;
}

/// Everything one timed loop observed, from outside the library.
/// An operation is one transaction the client wants committed; an attempt
/// is one run of it through the data path and the engine. The client runs
/// an operation whose attempt OCC aborted again in a later window.
struct LoopStats {
  std::size_t windows{0};
  std::size_t ops{0};        ///< operations started
  std::size_t given_up{0};   ///< operations aborted on every attempt
  std::size_t attempted{0};  ///< attempts
  std::size_t committed{0};
  std::size_t aborted{0};
  std::size_t undecided{0};  ///< attempts never decided (group: never sequenced)
  std::size_t blocks{0};
  std::size_t block_slots{0};  ///< blocks x block capacity
  std::vector<double> txn_latency_ms;
  std::vector<double> window_s;                ///< wall time of each window
  std::vector<std::size_t> window_committed;   ///< committed txns of each window
  std::vector<std::size_t> window_first_txn;  ///< index into txn_latency_ms
  std::vector<double> call_ms;
  double data_path_s{0};
  double batch_build_s{0};
  double deferred_sum{0};
  double coordinator_us{0};
  double cohort_critical_us{0};
  double mht_us{0};
  std::size_t spec_revotes{0};
  std::size_t rounds_submitted{0};
  std::size_t rounds_sequenced{0};
  std::size_t delivery_refusals{0};  ///< servers that refused a delivery
  std::size_t refused_txns{0};       ///< txns of engine calls with a refusal
  Transport::Stats net;
  double wall_s{0};
  double cpu_s{0};
};

/// The loop cut into kStretches stretches of consecutive windows, with each
/// stretch's throughput and latency quantiles. The end-to-end timings are
/// medians over the stretches.
struct Stretches {
  static constexpr std::size_t kStretches = 10;
  std::vector<double> tps;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
};

Stretches stretches(const LoopStats& st) {
  Stretches out;
  const std::size_t windows = st.window_first_txn.size();
  const std::size_t n = std::min(Stretches::kStretches, windows);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t w0 = k * windows / n;
    const std::size_t w1 = (k + 1) * windows / n;
    double wall = 0;
    std::size_t committed = 0;
    for (std::size_t w = w0; w < w1; ++w) {
      wall += st.window_s[w];
      committed += st.window_committed[w];
    }
    const auto begin = st.txn_latency_ms.begin() +
                       static_cast<std::ptrdiff_t>(st.window_first_txn[w0]);
    const auto end = w1 < windows ? st.txn_latency_ms.begin() +
                                        static_cast<std::ptrdiff_t>(st.window_first_txn[w1])
                                  : st.txn_latency_ms.end();
    const std::vector<double> lat(begin, end);
    out.tps.push_back(ratio(static_cast<double>(committed), wall));
    out.p50_ms.push_back(percentile(lat, 0.5));
    out.p90_ms.push_back(percentile(lat, 0.9));
  }
  return out;
}

/// Adds the outcome counts of `other` (not its timings) to `into`.
void add_counts(LoopStats& into, const LoopStats& other) {
  into.ops += other.ops;
  into.given_up += other.given_up;
  into.attempted += other.attempted;
  into.committed += other.committed;
  into.aborted += other.aborted;
  into.undecided += other.undecided;
  into.rounds_submitted += other.rounds_submitted;
  into.rounds_sequenced += other.rounds_sequenced;
  into.delivery_refusals += other.delivery_refusals;
  into.refused_txns += other.refused_txns;
}

/// Engine decisions seen per transaction (keyed by the single client's
/// per-transaction sequence number): how often, and the last verdict.
struct DecisionRecord {
  int count{0};
  bool committed{false};
};

/// One workload instance: the cluster plus the client-side state its
/// windows advance.
class Bench {
 public:
  Bench(const Spec& spec, std::uint64_t seed, Tracer& tracer)
      : spec_(spec), seed_(seed), tracer_(tracer) {}

  /// Builds the cluster, client and workload state; returns the wall time.
  double setup() {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer_, "fides.cluster_build");
      cluster_ = std::make_unique<Cluster>(cluster_config(spec_, seed_));
    }
    client_ = &cluster_->make_client();
    ycsb_ = std::make_unique<workload::YcsbWorkload>(
        spec_.ycsb, static_cast<std::uint64_t>(spec_.servers) * spec_.items_per_shard, seed_);
    builder_ = std::make_unique<commit::BatchBuilder>(spec_.block_txns);
    sequencer_ = std::make_unique<ordserv::Sequencer>();
    cursor_.assign(spec_.servers, 0);
    return seconds_since(t0);
  }

  /// Runs windows until `seconds` of wall clock have passed.
  LoopStats loop(double seconds) {
    LoopStats st;
    const Transport::Stats net0 = cluster_->transport().stats();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    while (st.windows == 0 || seconds_since(t0) < seconds) {
      const std::size_t committed0 = st.committed;
      st.window_first_txn.push_back(st.txn_latency_ms.size());
      const auto tw = Clock::now();
      {
        ScopedSpan span(tracer_, "loop.window");
        if (spec_.group) {
          group_window(st);
        } else {
          block_window(st, /*new_ops=*/true);
        }
      }
      st.window_s.push_back(seconds_since(tw));
      st.window_committed.push_back(st.committed - committed0);
      ++st.windows;
    }
    st.wall_s = seconds_since(t0);
    st.cpu_s = process_cpu_s() - cpu0;
    const Transport::Stats net1 = cluster_->transport().stats();
    st.net.messages = net1.messages - net0.messages;
    st.net.bytes = net1.bytes - net0.bytes;
    st.net.signatures_created = net1.signatures_created - net0.signatures_created;
    st.net.signatures_verified = net1.signatures_verified - net0.signatures_verified;
    return st;
  }

  /// Runs windows of retries only, until every operation has committed or
  /// given up; returns their outcome counts. Not part of any timed loop.
  LoopStats drain() {
    LoopStats st;
    while (!retries_.empty()) block_window(st, /*new_ops=*/false);
    return st;
  }

  Cluster& cluster() { return *cluster_; }
  Client& client() { return *client_; }
  const Spec& spec() const { return spec_; }
  std::unordered_map<std::uint64_t, DecisionRecord>& decisions() { return decisions_; }
  const std::vector<commit::SignedEndTxn>& sample_requests() const { return sample_; }
  const ordserv::Sequencer& sequencer() const { return *sequencer_; }

 private:
  /// Attempts after which the client gives up on an operation.
  static constexpr int kMaxAttempts = 16;

  /// An operation to run (again): its items in read order, whether it
  /// wrote each, and the number its next attempt will have.
  struct Retry {
    struct Op {
      ItemId item;
      bool write;
    };
    std::vector<Op> ops;
    int attempt{1};
  };

  void keep_sample(const commit::SignedEndTxn& req) {
    if (sample_.size() < kSampleSize) sample_.push_back(req);
  }

  /// Per batch, the sequence numbers of its transactions (recorded before
  /// the batches move into the engine).
  static std::vector<std::vector<std::uint64_t>> batch_seqs(
      const std::vector<std::vector<commit::SignedEndTxn>>& batches) {
    std::vector<std::vector<std::uint64_t>> seqs;
    for (const auto& batch : batches) {
      seqs.emplace_back();
      for (const auto& req : batch) seqs.back().push_back(req.request.txn.id.seq);
    }
    return seqs;
  }

  void record(const std::vector<std::uint64_t>& seqs, bool committed) {
    for (const std::uint64_t seq : seqs) {
      DecisionRecord& d = decisions_[seq];
      ++d.count;
      d.committed = committed;
    }
  }

  /// The items of an attempt and whether it wrote each, in read order.
  static std::vector<Retry::Op> ops_of(const txn::RwSet& rw) {
    std::vector<Retry::Op> ops;
    for (const auto& r : rw.reads) ops.push_back({r.id, rw.find_write(r.id) != nullptr});
    return ops;
  }

  /// global-closed / hotspot-audit: a window of block_txns transactions on
  /// the data path, packed by BatchBuilder, terminated by one run_blocks
  /// call. Retries of aborted operations run first, on the same items with
  /// fresh reads; new YCSB operations fill the rest (none when `new_ops` is
  /// false).
  void block_window(LoopStats& st, bool new_ops) {
    ycsb_->begin_batch();
    std::vector<double> ready_s;
    ready_s.reserve(spec_.block_txns);
    const auto t_window = Clock::now();
    for (std::size_t i = 0; i < spec_.block_txns && (new_ops || !retries_.empty()); ++i) {
      const auto t = Clock::now();
      commit::SignedEndTxn req;
      int attempt = 1;
      if (!retries_.empty()) {
        ScopedSpan span(tracer_, "client.retry_transaction");
        const Retry retry = std::move(retries_.front());
        retries_.pop_front();
        attempt = retry.attempt;
        ClientTxn txn = client_->begin();
        for (const Retry::Op& op : retry.ops) {
          client_->read(txn, op.item);
          if (op.write) client_->write(txn, op.item, ycsb_->next_value());
        }
        req = client_->end(std::move(txn));
      } else {
        ScopedSpan span(tracer_, "workload.run_transaction");
        req = ycsb_->run_transaction(*client_);
        ++st.ops;
      }
      st.data_path_s += seconds_since(t);
      ready_s.push_back(seconds_since(t_window));
      decisions_.try_emplace(req.request.txn.id.seq);
      in_flight_[req.request.txn.id.seq] = Retry{ops_of(req.request.txn.rw), attempt + 1};
      keep_sample(req);
      builder_->enqueue(std::move(req));
    }
    st.attempted += ready_s.size();

    std::vector<std::vector<commit::SignedEndTxn>> batches;
    const auto t_build = Clock::now();
    {
      ScopedSpan span(tracer_, "commit.batch_build");
      while (!builder_->empty()) {
        batches.push_back(builder_->next_batch());
        st.deferred_sum += static_cast<double>(builder_->pending());
      }
    }
    st.batch_build_s += seconds_since(t_build);
    const std::vector<std::vector<std::uint64_t>> kept = batch_seqs(batches);

    const auto t_call = Clock::now();
    PipelineResult run;
    {
      ScopedSpan span(tracer_, "engine.run_blocks");
      run = cluster_->run_blocks(std::move(batches));
    }
    const double call_s = seconds_since(t_call);
    const double done_s = seconds_since(t_window);
    st.call_ms.push_back(call_s * 1e3);
    for (const double r : ready_s) st.txn_latency_ms.push_back((done_s - r) * 1e3);

    const std::size_t rounds = std::min(run.rounds.size(), kept.size());
    for (std::size_t k = 0; k < rounds; ++k) {
      const RoundMetrics& m = run.rounds[k];
      const bool committed = m.decision == ledger::Decision::kCommit;
      record(kept[k], committed);
      (committed ? st.committed : st.aborted) += kept[k].size();
      for (const std::uint64_t seq : kept[k]) {
        auto node = in_flight_.extract(seq);
        if (node.empty() || committed) continue;
        if (node.mapped().attempt > kMaxAttempts) {
          ++st.given_up;
        } else {
          retries_.push_back(std::move(node.mapped()));
        }
      }
      ++st.blocks;
      st.block_slots += spec_.block_txns;
      st.coordinator_us += m.coordinator_us;
      st.cohort_critical_us += m.cohort_critical_us;
      st.mht_us += m.mht_us;
      st.spec_revotes += m.spec_revotes;
    }
    for (std::size_t k = rounds; k < kept.size(); ++k) {
      st.undecided += kept[k].size();
      for (const std::uint64_t seq : kept[k]) in_flight_.erase(seq);
    }
  }

  /// group-spec: a window of rounds_per_window group rounds, each of
  /// block_txns transactions writing one item per member server; 10% of
  /// rounds (seeded coin) bridge two adjacent groups.
  void group_window(LoopStats& st) {
    const std::uint32_t n = spec_.servers;
    const std::uint32_t width = n / spec_.groups;
    std::vector<std::vector<commit::SignedEndTxn>> batches;
    std::vector<double> ready_s;
    const auto t_window = Clock::now();
    for (std::size_t r = 0; r < spec_.rounds_per_window; ++r, ++round_) {
      const auto g = static_cast<std::uint32_t>(round_ % spec_.groups);
      std::vector<std::uint32_t> members;
      for (std::uint32_t s = g * width; s < (g + 1) * width; ++s) members.push_back(s);
      const bool bridge = static_cast<double>(splitmix64(seed_ ^ (round_ * 0x2545F4914F6CDD1DULL)) %
                                              10000) < spec_.bridge_frac * 10000.0;
      if (bridge) {
        const std::uint32_t h = (g + 1) % spec_.groups;
        for (std::uint32_t s = h * width; s < (h + 1) * width; ++s) members.push_back(s);
      }
      std::vector<commit::SignedEndTxn> batch;
      for (std::size_t t = 0; t < spec_.block_txns; ++t) {
        const auto t_txn = Clock::now();
        commit::SignedEndTxn req;
        {
          ScopedSpan span(tracer_, "workload.run_transaction");
          ClientTxn txn = client_->begin();
          for (const std::uint32_t s : members) {
            // Items owned by server s are k*n + s; the cursor cycles through
            // the shard, so no item repeats within a window and OCC never
            // aborts.
            const ItemId item = static_cast<ItemId>(cursor_[s]++ % spec_.items_per_shard) * n + s;
            client_->read(txn, item);
            client_->write(txn, item, to_bytes("g" + std::to_string(round_)));
          }
          req = client_->end(std::move(txn));
        }
        st.data_path_s += seconds_since(t_txn);
        ready_s.push_back(seconds_since(t_window));
        decisions_.try_emplace(req.request.txn.id.seq);
        keep_sample(req);
        batch.push_back(std::move(req));
      }
      batches.push_back(std::move(batch));
    }
    const std::vector<std::vector<std::uint64_t>> kept = batch_seqs(batches);
    st.ops += ready_s.size();
    st.attempted += ready_s.size();
    st.rounds_submitted += kept.size();

    const auto t_call = Clock::now();
    ordserv::GroupRunResult res;
    {
      ScopedSpan span(tracer_, "engine.run_group_blocks");
      res = cluster_->run_group_blocks(*sequencer_, std::move(batches));
    }
    const double call_s = seconds_since(t_call);
    const double done_s = seconds_since(t_window);
    st.call_ms.push_back(call_s * 1e3);
    for (const double r : ready_s) st.txn_latency_ms.push_back((done_s - r) * 1e3);

    const std::size_t rounds = std::min(res.rounds.size(), kept.size());
    for (std::size_t k = 0; k < rounds; ++k) {
      const ordserv::GroupRoundResult& rr = res.rounds[k];
      if (!rr.fault.empty()) {
        st.undecided += kept[k].size();
        continue;
      }
      ++st.rounds_sequenced;
      const bool committed = rr.decision == ledger::Decision::kCommit;
      record(kept[k], committed);
      (committed ? st.committed : st.aborted) += kept[k].size();
      // Each round writes items fresh to the window, so none is retried.
      if (!committed) st.given_up += kept[k].size();
      ++st.blocks;
      st.block_slots += spec_.block_txns;
    }
    for (std::size_t k = rounds; k < kept.size(); ++k) st.undecided += kept[k].size();
    const auto refusals = static_cast<std::size_t>(
        std::count_if(res.delivery_refusals.begin(), res.delivery_refusals.end(),
                      [](const auto& r) { return r.has_value(); }));
    st.delivery_refusals += refusals;
    if (refusals > 0) st.refused_txns += ready_s.size();
    st.spec_revotes += res.spec_revotes;
  }

  static constexpr std::size_t kSampleSize = 128;

  Spec spec_;
  std::uint64_t seed_;
  Tracer& tracer_;
  std::unique_ptr<Cluster> cluster_;
  Client* client_{nullptr};
  std::unique_ptr<workload::YcsbWorkload> ycsb_;
  std::unique_ptr<commit::BatchBuilder> builder_;
  std::unique_ptr<ordserv::Sequencer> sequencer_;
  std::vector<std::uint64_t> cursor_;
  std::uint64_t round_{0};
  std::unordered_map<std::uint64_t, DecisionRecord> decisions_;
  std::vector<commit::SignedEndTxn> sample_;
  std::unordered_map<std::uint64_t, Retry> in_flight_;  ///< by attempt seq
  std::deque<Retry> retries_;
};

/// Wall time of set-ups in fresh child processes: at least `min_reps`, and
/// more (up to `max_reps`) until `min_total_s` have passed. Each sample gets
/// a process of its own, as a user starting a cluster does, so no sample
/// reuses a heap an earlier one grew. Must run while the caller is still
/// single-threaded (fork).
std::vector<double> cold_setup_times(const Spec& spec, std::uint64_t seed,
                                     std::size_t min_reps, double min_total_s,
                                     std::size_t max_reps) {
  std::vector<double> times;
  const auto t_all = Clock::now();
  while (times.size() < min_reps ||
         (seconds_since(t_all) < min_total_s && times.size() < max_reps)) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      double t = -1;
      try {
        Tracer off;
        Bench bench(spec, seed, off);
        t = bench.setup();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "fides_perf: set-up in a child process: %s\n", e.what());
      }
      const bool sent = write(fds[1], &t, sizeof t) == static_cast<ssize_t>(sizeof t);
      _exit(sent && t >= 0 ? 0 : 1);
    }
    close(fds[1]);
    double t = -1;
    const ssize_t got = read(fds[0], &t, sizeof t);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof t) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up in a child process failed");
    }
    times.push_back(t);
  }
  return times;
}

// --- Audit -----------------------------------------------------------------------

struct AuditTiming {
  double collect_ms{0};
  double history_ms{0};
  double datastore_ms{0};
  std::size_t blocks{0};
  std::size_t items{0};
  std::size_t violations{0};
  std::string first_violation;

  double total_ms() const { return collect_ms + history_ms + datastore_ms; }
};

/// One full audit, phase by phase — the same steps, in the same order and
/// under the same conditions, as Auditor::run().
AuditTiming run_audit(Cluster& cluster, Tracer& tracer) {
  ScopedSpan all(tracer, "audit.run");
  audit::Auditor auditor(cluster);
  audit::AuditReport report;
  AuditTiming t;
  auto t0 = Clock::now();
  std::vector<ledger::Block> log;
  {
    ScopedSpan span(tracer, "audit.collect_and_select");
    log = auditor.collect_and_select(report);
  }
  t.collect_ms = seconds_since(t0) * 1e3;
  if (!log.empty()) {
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "audit.check_history");
      auditor.check_history(log, report);
    }
    t.history_ms = seconds_since(t0) * 1e3;
    t0 = Clock::now();
    {
      ScopedSpan span(tracer, "audit.check_datastores");
      auditor.check_datastores(log, report);
    }
    t.datastore_ms = seconds_since(t0) * 1e3;
  }
  t.blocks = report.blocks_audited;
  t.items = report.items_authenticated;
  t.violations = report.violations.size();
  if (!report.violations.empty()) t.first_violation = report.violations.front().to_string();
  return t;
}

// --- Output checks -----------------------------------------------------------------

/// Pass/fail checks on the program's outputs; returns the failures.
std::vector<std::string> check_outputs(Bench& bench, const LoopStats& total,
                                       bool force_failure) {
  std::vector<std::string> failures;
  Cluster& cluster = bench.cluster();
  const std::uint32_t n = cluster.num_servers();

  // All servers hold the same log.
  const Server& s0 = cluster.server(ServerId{0});
  for (std::uint32_t s = 1; s < n; ++s) {
    const Server& srv = cluster.server(ServerId{s});
    if (srv.log().size() != s0.log().size() || !(srv.log().head_hash() == s0.log().head_hash())) {
      failures.push_back("server " + std::to_string(s) + " log head differs from server 0");
    }
  }
  // Every shard's Merkle root is the one the latest committed block signed for it.
  const auto& blocks = s0.log().blocks();
  for (std::uint32_t s = 0; s < n; ++s) {
    const ServerId id{s};
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
      if (!it->committed() || it->root_of(id) == nullptr) continue;
      if (!(*it->root_of(id) == cluster.server(id).shard().merkle_root())) {
        failures.push_back("server " + std::to_string(s) +
                           " shard root differs from the root its last block signed");
      }
      break;
    }
  }

  // Every attempted transaction was decided exactly once by the engine, and
  // appears exactly once in the log with the same verdict.
  auto decisions = bench.decisions();
  if (force_failure && !decisions.empty()) decisions.begin()->second.count = 0;
  std::unordered_map<std::uint64_t, DecisionRecord> logged;
  for (const ledger::Block& b : blocks) {
    for (const auto& t : b.txns) {
      DecisionRecord& d = logged[t.id.seq];
      ++d.count;
      d.committed = b.committed();
    }
  }
  std::size_t bad = 0;
  std::string example;
  for (const auto& [seq, d] : decisions) {
    const auto it = logged.find(seq);
    const bool ok = d.count == 1 && it != logged.end() && it->second.count == 1 &&
                    it->second.committed == d.committed;
    if (!ok && bad++ == 0) {
      example = "txn " + std::to_string(seq) + " decided " + std::to_string(d.count) +
                "x by the engine, logged " +
                std::to_string(it == logged.end() ? 0 : it->second.count) + "x";
    }
  }
  if (bad > 0) {
    failures.push_back(std::to_string(bad) + " transactions not decided exactly once (" +
                       example + ")");
  }
  if (decisions.size() != total.attempted) {
    failures.push_back("attempted " + std::to_string(total.attempted) + " but tracked " +
                       std::to_string(decisions.size()) + " transactions");
  }

  if (bench.spec().group) {
    if (total.rounds_sequenced != total.rounds_submitted) {
      failures.push_back(std::to_string(total.rounds_submitted) + " rounds submitted, " +
                         std::to_string(total.rounds_sequenced) + " sequenced");
    }
    if (total.delivery_refusals != 0) {
      failures.push_back(std::to_string(total.delivery_refusals) + " delivery refusals");
    }
  }
  return failures;
}

// --- Layer probes (traced run only) --------------------------------------------------

struct Probes {
  double verify_us{0};
  double sign_us{0};
  double batch_verify_us_per_sig{0};
  double sha256_mb_per_s{0};
  double sha256_pair_us{0};
  double root_after_us{0};
  double vo_verify_us{0};
  double validate_occ_us{0};
  double seal_open_us{0};
  double validate_stream_us_per_entry{0};
  double validate_chain_us_per_block{0};
  std::size_t occ_commits{0};  ///< sampled transactions validate_occ would commit now
  bool ok{true};
};

/// Re-times public layer functions on the run's own inputs: its signed
/// requests, its serialized blocks, and server 0's share of its blocks'
/// write sets on a tree of the workload's shard size.
Probes run_probes(Bench& bench, Tracer& tracer) {
  ScopedSpan all(tracer, "probes");
  Probes p;
  const auto& reqs = bench.sample_requests();
  const crypto::KeyPair& kp = bench.client().keypair();
  std::vector<Bytes> msgs;
  msgs.reserve(reqs.size());
  for (const auto& r : reqs) msgs.push_back(r.request.serialize());

  if (!reqs.empty()) {
    {
      ScopedSpan span(tracer, "crypto.verify");
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        p.ok &= crypto::verify(kp.public_key(), msgs[i], reqs[i].signature);
      }
      p.verify_us = seconds_since(t0) * 1e6 / static_cast<double>(reqs.size());
    }
    {
      ScopedSpan span(tracer, "crypto.sign");
      const auto t0 = Clock::now();
      for (const Bytes& m : msgs) p.ok &= crypto::verify(kp.public_key(), m, kp.sign(m));
      // sign + verify was timed; take the verify share back out.
      p.sign_us = seconds_since(t0) * 1e6 / static_cast<double>(msgs.size()) - p.verify_us;
    }
    {
      ScopedSpan span(tracer, "crypto.batch_verify");
      const std::size_t width = std::min(reqs.size(), bench.spec().block_txns);
      std::vector<crypto::BatchItem> items;
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        items.push_back(crypto::BatchItem{&kp.public_key(), msgs[i], &reqs[i].signature});
      }
      std::size_t sigs = 0;
      const auto t0 = Clock::now();
      for (std::size_t lo = 0; lo + width <= items.size(); lo += width) {
        const auto ok = crypto::batch_verify(std::span(items).subspan(lo, width));
        p.ok &= std::all_of(ok.begin(), ok.end(), [](unsigned char b) { return b == 1; });
        sigs += width;
      }
      p.batch_verify_us_per_sig = seconds_since(t0) * 1e6 / static_cast<double>(sigs);
    }
  }

  const auto& blocks = bench.cluster().server(ServerId{0}).log().blocks();
  {
    ScopedSpan span(tracer, "crypto.sha256");
    std::vector<Bytes> ser;
    std::size_t bytes = 0;
    for (auto it = blocks.rbegin(); it != blocks.rend() && bytes < (8u << 20); ++it) {
      ser.push_back(it->serialize());
      bytes += ser.back().size();
    }
    crypto::Digest acc{};
    const auto t0 = Clock::now();
    for (const Bytes& b : ser) acc = crypto::sha256_pair(acc, crypto::sha256(b));
    p.sha256_mb_per_s = static_cast<double>(bytes) / 1e6 / seconds_since(t0);
    p.ok &= !acc.is_zero();
  }
  {
    ScopedSpan span(tracer, "crypto.sha256_pair");
    constexpr std::size_t kPairs = 50000;
    crypto::Digest d = blocks.empty() ? crypto::Digest{} : blocks.back().digest();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPairs; ++i) d = crypto::sha256_pair(d, d);
    p.sha256_pair_us = seconds_since(t0) * 1e6 / kPairs;
    p.ok &= !d.is_zero();
  }

  // Merkle: server 0's share of each recent committed block's write set.
  const Server& s0 = bench.cluster().server(ServerId{0});
  const merkle::MerkleTree tree(bench.spec().items_per_shard);
  std::vector<std::vector<std::pair<std::size_t, crypto::Digest>>> updates;
  for (auto it = blocks.rbegin(); it != blocks.rend() && updates.size() < 32; ++it) {
    if (!it->committed()) continue;
    std::vector<std::pair<std::size_t, crypto::Digest>> u;
    for (const auto& t : it->txns) {
      for (const auto& w : t.rw.writes) {
        if (bench.cluster().owner_of(w.id).value != 0) continue;
        u.emplace_back(s0.shard().leaf_index(w.id), store::item_leaf_digest(w.id, w.new_value));
      }
    }
    if (!u.empty()) updates.push_back(std::move(u));
  }
  if (!updates.empty()) {
    {
      ScopedSpan span(tracer, "merkle.root_after");
      crypto::Digest acc{};
      const auto t0 = Clock::now();
      for (const auto& u : updates) acc = crypto::sha256_pair(acc, tree.root_after(u));
      p.root_after_us = seconds_since(t0) * 1e6 / static_cast<double>(updates.size());
      p.ok &= !acc.is_zero();
    }
    {
      ScopedSpan span(tracer, "merkle.vo_verify");
      const crypto::Digest root = tree.root();
      std::size_t n = 0;
      const auto t0 = Clock::now();
      for (const auto& u : updates) {
        for (const auto& [idx, leaf] : u) {
          const merkle::VerificationObject vo = merkle::make_vo(tree, idx);
          p.ok &= merkle::verify_vo(tree.leaf(idx), vo, root);
          ++n;
        }
      }
      p.vo_verify_us = seconds_since(t0) * 1e6 / static_cast<double>(n);
    }
  }

  if (!reqs.empty()) {
    // OCC validation of the sampled transactions against server 0's shard
    // as it stands now (most of them read stale versions by then; the
    // verdict is not the point, the validation work is).
    ScopedSpan span(tracer, "txn.validate_occ");
    const auto t0 = Clock::now();
    for (const auto& r : reqs) p.occ_commits += txn::validate_occ(s0.shard(), r.request.txn).ok();
    p.validate_occ_us = seconds_since(t0) * 1e6 / static_cast<double>(reqs.size());
  }
  if (!reqs.empty()) {
    ScopedSpan span(tracer, "transport.seal_open");
    Transport& transport = bench.cluster().transport();
    const NodeId sender = NodeId::client(bench.client().id());
    const auto t0 = Clock::now();
    for (const Bytes& m : msgs) {
      const Envelope env = transport.seal(kp, sender, "perf_probe", m);
      p.ok &= transport.open(env, "perf_probe");
    }
    p.seal_open_us = seconds_since(t0) * 1e6 / static_cast<double>(msgs.size());
  }
  if (bench.spec().group && bench.sequencer().size() > 0) {
    ScopedSpan span(tracer, "ordserv.validate_stream");
    const auto& deque = bench.sequencer().stream();
    const std::vector<ordserv::SequencedBlock> stream(deque.begin(), deque.end());
    const auto t0 = Clock::now();
    p.ok &= !ordserv::validate_stream(stream, bench.cluster().server_keys()).has_value();
    p.validate_stream_us_per_entry = seconds_since(t0) * 1e6 / static_cast<double>(stream.size());
  }
  if (!blocks.empty()) {
    // Group blocks carry group co-signs, which validate_chain's full-
    // membership check does not accept; their chain links are still checked.
    ScopedSpan span(tracer, "ledger.validate_chain");
    const std::size_t n = std::min<std::size_t>(blocks.size(), 64);
    const auto t0 = Clock::now();
    p.ok &= ledger::validate_chain(std::span(blocks).first(n), bench.cluster().server_keys(),
                                   !bench.spec().group)
                .ok;
    p.validate_chain_us_per_block = seconds_since(t0) * 1e6 / static_cast<double>(n);
  }
  return p;
}

// --- Report ------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_flags() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string out;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    if ((b & (1u << 29)) != 0) out += "sha_ni ";
    if ((b & (1u << 19)) != 0) out += "adx ";
    if ((b & (1u << 8)) != 0) out += "bmi2 ";
    if ((b & (1u << 5)) != 0) out += "avx2 ";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool tiny{false};
  bool force_check_failure{false};
  std::string trace_out;
  std::string commit{"unknown"};
};

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--force-check-failure") {
      o.force_check_failure = true;
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--commit") {
      o.commit = value();
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
  const Spec spec = make_spec(opt.workload, opt.tiny);
  Tracer tracer;
  tracer.set_enabled(opt.trace);
  Bench bench(spec, opt.seed, tracer);

  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
              "\"trace\": %d, \"tiny\": %d, \"nproc\": %u, \"cpu_flags\": \"%s\", "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\"}\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              fmt(opt.seconds).c_str(), opt.trace ? 1 : 0, opt.tiny ? 1 : 0,
              std::thread::hardware_concurrency(), cpu_flags().c_str(), FIDES_PERF_COMPILER,
              FIDES_PERF_BUILD_TYPE, json_escape(opt.commit).c_str());

  // Set-up: the median of cold set-ups in child processes and this
  // process's own (before any thread exists here). The set-ups of the first
  // 1.5 s are a warm-up and not counted: on a virtual machine whose CPUs
  // were idle, the first ones ran up to 3x slower (on the sizing host: the
  // first 1.2 s of group-spec children, the first hotspot-audit child).
  if (!opt.tiny) cold_setup_times(spec, opt.seed, 1, 1.5, 100);
  std::vector<double> setups = cold_setup_times(spec, opt.seed, opt.tiny ? 1 : 4,
                                                opt.tiny ? 0.0 : 3.0, 30);
  setups.push_back(bench.setup());
  const double setup_heap_mb = heap_in_use_mb();

  // Timed loop. A traced run splits it: untraced first half, traced second
  // half, so the tracing overhead is measured on the same cluster.
  // `st` is the measured loop (the traced half of a traced run); `total`
  // holds the outcome counts of every transaction the run attempted.
  LoopStats st;
  LoopStats total;
  double untraced_tps = 0;
  if (opt.trace) {
    tracer.set_enabled(false);
    const LoopStats first = bench.loop(opt.seconds / 2);
    untraced_tps = ratio(static_cast<double>(first.committed), first.wall_s);
    add_counts(total, first);
    tracer.set_enabled(true);
  }
  const double heap_before_mb = heap_in_use_mb();
  st = bench.loop(opt.trace ? opt.seconds / 2 : opt.seconds);
  const double heap_growth_mb = heap_in_use_mb() - heap_before_mb;
  add_counts(total, st);
  tracer.set_enabled(false);
  add_counts(total, bench.drain());
  tracer.set_enabled(opt.trace);
  const double tps = ratio(static_cast<double>(st.committed), st.wall_s);

  const AuditTiming audit = spec.audit ? run_audit(bench.cluster(), tracer) : AuditTiming{};
  const Probes probes = opt.trace ? run_probes(bench, tracer) : Probes{};

  std::vector<std::string> failures = check_outputs(bench, total, opt.force_check_failure);
  if (!probes.ok) failures.push_back("a layer probe returned a wrong result");

  // An operation fails if every attempt aborted, or an attempt was never
  // decided or was refused at delivery. Audit violations are reported on
  // their own (see the known defect in README.md), not as failed operations.
  const std::size_t attempted = total.ops;
  const std::size_t failed =
      std::min(attempted, total.given_up + total.undecided + total.refused_txns);

  std::printf("%s: %zu windows, %zu engine calls, %zu blocks, %zu operations, %zu attempts, "
              "%zu committed, %zu aborted, %.3f s loop\n",
              spec.name.c_str(), st.windows, st.call_ms.size(), st.blocks, st.ops, st.attempted,
              st.committed, st.aborted, st.wall_s);
  const Stretches stretch = stretches(st);
  std::printf("stretch txn/s, p50 ms, p90 ms:");
  for (std::size_t k = 0; k < stretch.tps.size(); ++k) {
    std::printf(" [%.1f %.2f %.2f]", stretch.tps[k], stretch.p50_ms[k], stretch.p90_ms[k]);
  }
  std::printf("\n");
  std::printf("setup builds (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\naudit: %zu blocks, %zu items, %zu violations%s%s\n", audit.blocks, audit.items,
              audit.violations, audit.violations ? "; first: " : "",
              audit.first_violation.c_str());
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::vector<Metric> metrics;
  const double blocks = static_cast<double>(std::max<std::size_t>(1, st.blocks));
  if (!opt.trace) {
    // Each timing of the loop is the median over its stretches, so a burst
    // of interference from other guests on a shared host sets at most the
    // stretches it hits.
    metrics = {
        {"setup_s", percentile(setups, 0.5), "s"},
        {"commit_tps", percentile(stretch.tps, 0.5), "1/s"},
        {"commit_p50_ms", percentile(stretch.p50_ms, 0.5), "ms"},
        {"commit_p90_ms", percentile(stretch.p90_ms, 0.5), "ms"},
        {"setup_heap_mb", setup_heap_mb, "MB"},
    };
  } else {
    // Per-transaction and per-block figures come from the traced half only.
    const double half_txns =
        static_cast<double>(std::max<std::size_t>(1, st.txn_latency_ms.size()));
    double call_total_ms = 0;
    for (const double c : st.call_ms) call_total_ms += c;
    const auto [build_us, builds] = tracer.total_us("fides.cluster_build");
    const double unattributed_ms =
        spec.group ? call_total_ms / blocks
                   : (call_total_ms - (st.coordinator_us + st.cohort_critical_us) / 1e3) / blocks;
    double block_bytes = 0;
    std::size_t logged_txns = 0;
    for (const ledger::Block& b : bench.cluster().server(ServerId{0}).log().blocks()) {
      block_bytes += static_cast<double>(b.serialize().size());
      logged_txns += b.txns.size();
    }
    metrics = {
        {"fides.cluster_build_s", ratio(build_us / 1e6, static_cast<double>(builds)), "s"},
        {"workload.data_path_us_per_txn", st.data_path_s * 1e6 / half_txns, "us"},
        {"commit.batch_build_us_per_block", st.batch_build_s * 1e6 / blocks, "us"},
        {"commit.block_fill", ratio(static_cast<double>(st.committed),
                                    static_cast<double>(st.block_slots)), "ratio"},
        {"commit.coordinator_ms_per_block", st.coordinator_us / 1e3 / blocks, "ms"},
        {"commit.cohort_critical_ms_per_block", st.cohort_critical_us / 1e3 / blocks, "ms"},
        {"txn.deferred_per_block", st.deferred_sum / blocks, "count"},
        {"txn.abort_frac", static_cast<double>(st.aborted) / half_txns, "ratio"},
        {"merkle.mht_ms_per_block", st.mht_us / 1e3 / blocks, "ms"},
        {"merkle.root_after_us", probes.root_after_us, "us"},
        {"merkle.vo_verify_us", probes.vo_verify_us, "us"},
        {"txn.validate_occ_us", probes.validate_occ_us, "us"},
        {"transport.seal_open_us", probes.seal_open_us, "us"},
        {"ordserv.validate_stream_us_per_entry", probes.validate_stream_us_per_entry, "us"},
        {"ledger.validate_chain_us_per_block", probes.validate_chain_us_per_block, "us"},
        {"ledger.heap_kb_per_block", heap_growth_mb * 1024.0 / blocks, "KB"},
        {"crypto.verifies_per_txn",
         static_cast<double>(st.net.signatures_verified.load()) / half_txns, "count"},
        {"crypto.signs_per_txn",
         static_cast<double>(st.net.signatures_created.load()) / half_txns, "count"},
        {"crypto.verify_us", probes.verify_us, "us"},
        {"crypto.sign_us", probes.sign_us, "us"},
        {"crypto.batch_verify_us_per_sig", probes.batch_verify_us_per_sig, "us"},
        {"crypto.sha256_mb_per_s", probes.sha256_mb_per_s, "MB/s"},
        {"crypto.sha256_pair_us", probes.sha256_pair_us, "us"},
        {"transport.msgs_per_txn", static_cast<double>(st.net.messages.load()) / half_txns,
         "count"},
        {"transport.bytes_per_txn", static_cast<double>(st.net.bytes.load()) / half_txns, "B"},
        {"engine.call_ms", percentile(st.call_ms, 0.5), "ms"},
        {"engine.unattributed_ms_per_block", unattributed_ms, "ms"},
        {"engine.cores_busy", ratio(st.cpu_s, st.wall_s), "ratio"},
        {"engine.spec_revotes_per_round", static_cast<double>(st.spec_revotes) / blocks, "count"},
        {"ordserv.sequenced_frac",
         ratio(static_cast<double>(st.rounds_sequenced), static_cast<double>(st.rounds_submitted)),
         "ratio"},
        {"ordserv.delivery_refusals", static_cast<double>(st.delivery_refusals), "count"},
        {"ledger.block_bytes_per_txn",
         ratio(block_bytes, static_cast<double>(logged_txns)), "B"},
        {"audit.ms_per_block", ratio(audit.total_ms(), static_cast<double>(audit.blocks)), "ms"},
        {"audit.collect_ms", audit.collect_ms, "ms"},
        {"audit.history_ms", audit.history_ms, "ms"},
        {"audit.datastore_ms", audit.datastore_ms, "ms"},
        {"audit.items_per_block", ratio(static_cast<double>(audit.items),
                                        static_cast<double>(audit.blocks)), "count"},
        {"audit.violations", static_cast<double>(audit.violations), "count"},
        {"trace.overhead_tps", tps - untraced_tps, "1/s"},
    };

    // Span summary (self time = duration minus direct children) and the
    // spans themselves.
    std::printf("%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, sum] : tracer.summarize()) {
      std::printf("%-34s %8zu %12.3f %12.3f\n", name.c_str(), sum.count, sum.total_us / 1e3,
                  sum.self_us / 1e3);
    }
    std::printf("traced %.1f txn/s vs untraced %.1f txn/s; OCC probe would commit %zu of %zu\n",
                tps, untraced_tps, probes.occ_commits, bench.sample_requests().size());
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      const auto& spans = tracer.spans();
      for (std::size_t i = 0; i < spans.size(); ++i) {
        out << "{\"id\": " << i << ", \"name\": \"" << spans[i].name
            << "\", \"start_us\": " << fmt(spans[i].start_us)
            << ", \"end_us\": " << fmt(spans[i].end_us) << ", \"parent\": " << spans[i].parent
            << "}\n";
      }
      if (!out) throw std::runtime_error("cannot write trace to " + opt.trace_out);
    }
  }

  const bool correct = failures.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + fmt(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fides_perf: %s\n", e.what());
    return 2;
  }
}
