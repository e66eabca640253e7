/// \file pipeline_core.hpp
/// \brief The producer/consumer ring shared by every run_stream source:
///        a reader thread fills recycled batch buffers, consumer threads
///        drain them, errors from either side are rethrown on the caller.
///
/// run_stream (stream/pipeline.hpp) drives every stream, from disk or from
/// memory, through this one loop, so all sources share the exact shutdown
/// and error protocol: two bounded queues close the loop, ring_batches
/// bounds the parse-ahead (backpressure on both sides), and after warm-up
/// no allocation happens on either path. ring_batches == 0 is the sequential route: no
/// reader thread, one batch, the same spans and fault sites.
///
/// Failure hardening: an optional watchdog bounds every queue wait so
/// a dead peer thread surfaces as IoError instead of a hang; a consumer
/// error aborts (close + discard) both queues so siblings and the producer
/// stop at their next queue operation; and when the producer thread cannot
/// be spawned at all the pipeline degrades to a sequential fill/consume loop
/// on the calling thread — same results, no parallelism.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "oms/telemetry/metrics.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/parallel.hpp"

namespace oms {

/// Run a batched producer/consumer pipeline to completion.
///
/// \param ring_batches batches circulating between producer and consumers;
///                     0 runs without a reader thread: fill and consume
///                     alternate on the calling thread over one batch (the
///                     sequential route).
/// \param consumers    consumer thread count; the calling thread is consumer
///                     0, so the pipeline costs exactly `consumers` extra
///                     threads minus one plus the reader.
/// \param fill         invoked on the producer thread: fill(batch) parses
///                     the next chunk into \p batch and returns the element
///                     count; 0 means the stream is exhausted.
/// \param consume      invoked on consumer threads: consume(batch,
///                     thread_id) processes one batch.
/// \param watchdog_ms  bound on any single queue wait; 0 (default) disables.
///                     A timeout means a peer thread died without closing
///                     its queue and is reported as IoError.
///
/// An exception thrown by \p fill wakes the consumers (they drain what was
/// parsed, then stop) and is rethrown here after all threads joined; an
/// exception from \p consume stops the siblings and the producer the same
/// way. Fill errors take precedence, matching "the parse failed first".
template <typename Batch, typename Fill, typename Consume>
void run_batched_pipeline(std::size_t ring_batches, int consumers, Fill&& fill,
                          Consume&& consume, std::uint64_t watchdog_ms = 0) {
  // No reader thread: fill and consume alternate on the calling thread. The
  // sequential route, and the degrade path when the reader cannot spawn.
  const auto run_sequential = [&] {
    Batch batch;
    while (true) {
      fault_sleep(FaultSite::kFillDelay);
      {
        const telemetry::TraceSpan span(telemetry::Hist::kStageParse);
        if (fill(batch) == 0) {
          return;
        }
      }
      if (fault_fires(FaultSite::kConsumeThrow)) {
        throw IoError("injected consumer fault");
      }
      {
        const telemetry::TraceSpan span(telemetry::Hist::kStageAssign);
        consume(batch, 0);
      }
      telemetry::metric_add(telemetry::Counter::kPipelineBatches);
    }
  };
  if (ring_batches == 0) {
    run_sequential();
    return;
  }

  using BatchPtr = std::unique_ptr<Batch>;
  BoundedQueue<BatchPtr> free_q(ring_batches);
  BoundedQueue<BatchPtr> filled_q(ring_batches);
  if (watchdog_ms != 0) {
    free_q.set_watchdog(std::chrono::milliseconds(watchdog_ms));
    filled_q.set_watchdog(std::chrono::milliseconds(watchdog_ms));
  }
  for (std::size_t i = 0; i < ring_batches; ++i) {
    (void)free_q.push(std::make_unique<Batch>());
  }

  std::mutex error_mutex;
  std::exception_ptr fill_error;
  std::exception_ptr consume_error;

  const auto producer_loop = [&] {
    try {
      BatchPtr batch;
      while (true) {
        // Telemetry: the time spent waiting for a recycled batch is exactly
        // the backpressure the consumers exert on the reader. Clock reads
        // happen only with a registry armed.
        if (telemetry::enabled()) [[unlikely]] {
          const std::uint64_t t0 = telemetry::now_ns();
          const bool ok = free_q.pop(batch);
          telemetry::metric_add(telemetry::Counter::kPipelineProducerStallNs,
                                telemetry::now_ns() - t0);
          if (!ok) {
            break;
          }
        } else if (!free_q.pop(batch)) {
          break;
        }
        fault_sleep(FaultSite::kFillDelay);
        {
          const telemetry::TraceSpan span(telemetry::Hist::kStageParse);
          if (fill(*batch) == 0) {
            break; // stream exhausted
          }
        }
        if (!filled_q.push(std::move(batch))) {
          break; // a consumer failed and closed the queues
        }
        if (telemetry::enabled()) [[unlikely]] {
          telemetry::gauge_max(telemetry::Gauge::kPipelineQueueDepthMax,
                               filled_q.size());
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      fill_error = std::current_exception();
    }
    // Wakes the consumers; they drain what was parsed, then stop. An IoError
    // therefore surfaces on the caller, never as a deadlocked pipeline.
    filled_q.close();
  };

  // Graceful degradation: if the OS refuses the producer thread (or the
  // injected thread.spawn fault simulates that), run the whole stream
  // sequentially on the calling thread. Identical results, no parallelism —
  // strictly better than failing a multi-hour run over a transient
  // resource limit.
  std::thread producer;
  if (!fault_fires(FaultSite::kThreadSpawn)) {
    try {
      producer = std::thread(producer_loop);
    } catch (const std::system_error&) {
    }
  }
  if (!producer.joinable()) {
    run_sequential();
    return;
  }

  const auto consume_loop = [&](int thread_id) {
    try {
      BatchPtr batch;
      while (true) {
        // Telemetry mirror of the producer side: waits on the filled queue
        // measure reader-bound (or sibling-starved) consumers.
        if (telemetry::enabled()) [[unlikely]] {
          const std::uint64_t t0 = telemetry::now_ns();
          const bool ok = filled_q.pop(batch);
          const std::uint64_t waited = telemetry::now_ns() - t0;
          telemetry::metric_add(telemetry::Counter::kPipelineConsumerWaitNs,
                                waited);
          telemetry::hist_record(telemetry::Hist::kPipelineQueueWait, waited);
          if (!ok) {
            break;
          }
        } else if (!filled_q.pop(batch)) {
          break;
        }
        if (fault_fires(FaultSite::kConsumeThrow)) {
          throw IoError("injected consumer fault");
        }
        {
          const telemetry::TraceSpan span(telemetry::Hist::kStageAssign);
          consume(*batch, thread_id);
        }
        telemetry::metric_add(telemetry::Counter::kPipelineBatches);
        if (!free_q.push(std::move(batch))) {
          break;
        }
      }
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (consume_error == nullptr) {
          consume_error = std::current_exception();
        }
      }
      // abort(), not close(): discard the parsed backlog so sibling
      // consumers stop at their next pop instead of draining batches whose
      // results will be thrown away, and the producer's push/pop unblock
      // immediately. The first error recorded above is the one rethrown.
      filled_q.abort();
      free_q.abort();
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(consumers) - 1);
  for (int t = 1; t < consumers; ++t) {
    // A failed worker spawn degrades to fewer consumers (the calling thread
    // is always consumer 0); correctness never depends on the count.
    if (fault_fires(FaultSite::kThreadSpawn)) {
      break;
    }
    try {
      workers.emplace_back(consume_loop, t);
    } catch (const std::system_error&) {
      break;
    }
  }
  consume_loop(0);
  for (std::thread& w : workers) {
    w.join();
  }
  free_q.close(); // producer may still be waiting for a recycled batch
  producer.join();

  if (fill_error != nullptr) {
    std::rethrow_exception(fill_error);
  }
  if (consume_error != nullptr) {
    std::rethrow_exception(consume_error);
  }
}

} // namespace oms
