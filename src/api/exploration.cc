#include "api/exploration.h"

#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/case_studies.h"
#include "dist/segment_merger.h"

namespace ddtr::api {

Exploration::Exploration(core::CaseStudy study)
    : Exploration(std::move(study), core::make_paper_energy_model()) {}

Exploration::Exploration(core::CaseStudy study, energy::EnergyModel model)
    : study_(std::move(study)),
      model_(std::move(model)),
      cancel_(std::make_shared<std::atomic<bool>>(false)) {
  options_.cancel = cancel_;
}

Exploration& Exploration::jobs(std::size_t lanes) {
  options_.jobs = lanes;
  return *this;
}

Exploration& Exploration::survivor_cap(double fraction) {
  options_.survivor_cap_fraction = fraction;
  return *this;
}

Exploration& Exploration::champions_per_metric(std::size_t count) {
  options_.champions_per_metric = count;
  return *this;
}

Exploration& Exploration::step1_policy(core::Step1Policy policy) {
  options_.step1_policy = policy;
  return *this;
}

Exploration& Exploration::memoize_simulations(bool enabled) {
  options_.memoize_simulations = enabled;
  return *this;
}

Exploration& Exploration::cache_dir(std::string dir) {
  options_.cache_dir = std::move(dir);
  return *this;
}

Exploration& Exploration::shard(std::size_t index, std::size_t count) {
  options_.shard_index = index;
  options_.shard_count = count == 0 ? 1 : count;
  return *this;
}

Exploration& Exploration::workers(std::size_t count) {
  workers_ = count == 0 ? 1 : count;
  return *this;
}

Exploration& Exploration::on_progress(core::ProgressObserver observer) {
  options_.progress = std::move(observer);
  return *this;
}

Exploration& Exploration::shared_cache(core::SimulationCache* cache) {
  options_.shared_cache = cache;
  return *this;
}

Exploration& Exploration::shared_persistent(
    core::PersistentSimulationCache* persistent) {
  options_.shared_persistent = persistent;
  return *this;
}

Exploration& Exploration::shared_pool(support::ThreadPool* pool) {
  options_.shared_pool = pool;
  return *this;
}

Exploration& Exploration::trace_sink(obs::TraceWriter* sink) {
  options_.trace_sink = sink;
  return *this;
}

void Exploration::cancel() {
  cancel_->store(true, std::memory_order_relaxed);
}

Exploration& Exploration::cancel_token(
    std::shared_ptr<std::atomic<bool>> token) {
  if (!token) {
    throw std::invalid_argument("Exploration::cancel_token: null token");
  }
  cancel_ = std::move(token);
  options_.cancel = cancel_;
  return *this;
}

const core::ExplorationReport& Exploration::run() {
  // Cleared up front: if this run throws (e.g. out of a progress
  // observer), a stale report from an earlier run must not masquerade as
  // the new configuration's result.
  report_.reset();
  if (workers_ > 1) {
    if (options_.shard_count > 1) {
      throw std::invalid_argument(
          "Exploration: workers() and shard() are mutually exclusive — a "
          "shard worker is spawned BY a workers() run");
    }
    return run_distributed();
  }
  const core::ExplorationEngine engine(model_, options_);
  report_ = engine.explore(study_);
  return *report_;
}

const core::ExplorationReport& Exploration::run_distributed() {
  if (options_.cache_dir.empty()) {
    throw std::invalid_argument(
        "Exploration: workers() requires cache_dir() — shard workers meet "
        "only through cache segments");
  }
  const std::size_t count = workers_;

  // Shard engines tick progress concurrently (each serializes only its
  // own stream); one shared lock keeps the user observer single-threaded.
  // Events carry shard_index/shard_count, so the streams stay separable.
  core::ProgressObserver serialized;
  if (options_.progress) {
    serialized = [observer = options_.progress,
                  mu = std::make_shared<std::mutex>()](
                     const core::StepProgress& p) {
      std::lock_guard<std::mutex> lock(*mu);
      observer(p);
    };
  }

  // Phase 1: every shard as one thread. All shards share the session's
  // cancel flag, so a failing shard — or a user cancel() — stops the
  // whole fleet cooperatively; each shard still checkpoints what it
  // executed into its own segment.
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(count);
  threads.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    threads.emplace_back([this, s, count, &serialized, &errors] {
      try {
        core::ExplorationOptions options = options_;
        options.shard_index = s;
        options.shard_count = count;
        options.progress = serialized;
        const core::ExplorationEngine engine(model_, options);
        engine.explore(study_);
      } catch (...) {
        errors[s] = std::current_exception();
        cancel_->store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Phase 2: consolidate the segments (also compacts the main file).
  dist::SegmentMerger::merge(options_.cache_dir);

  // Phase 3: the coordinator pass — unsharded, over the merged cache. It
  // replays every unit (zero executed simulations) and its report is
  // byte-identical to a single-process run's.
  const core::ExplorationEngine engine(model_, options_);
  report_ = engine.explore(study_);
  return *report_;
}

const core::ExplorationReport& Exploration::report() const {
  if (!report_) {
    throw std::logic_error("Exploration::report(): run() has not completed");
  }
  return *report_;
}

}  // namespace ddtr::api
