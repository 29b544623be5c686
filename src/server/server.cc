#include "server/server.h"

#include <unistd.h>

#include <utility>

#include "server/health_monitor.h"
#include "telemetry/prometheus.h"
#include "telemetry/trace.h"

namespace sketch::server {

SketchServer::SketchServer(const Options& options)
    : options_(options),
      service_(SketchService::Options{options.slow_query_log_size}) {}

SketchServer::~SketchServer() { Stop(); }

bool SketchServer::Start() {
  listener_ = options_.unix_path.empty()
                  ? SocketListener::ListenTcp(options_.tcp_port)
                  : SocketListener::ListenUnix(options_.unix_path);
  if (options_.http_port.has_value() && listener_ != nullptr) {
    http_listener_ = SocketListener::ListenTcp(*options_.http_port);
  }
  // Both listeners are bound before any thread starts, so a failed Start
  // only has to release them: no thread runs and no port stays bound.
  const auto abandon = [this] {
    listener_.reset();
    http_listener_.reset();
    return false;
  };
  if (listener_ == nullptr ||
      (options_.http_port.has_value() && http_listener_ == nullptr)) {
    return abandon();
  }
  if (http_listener_ != nullptr) {
    HttpExposition::Handlers handlers;
    handlers.metrics = [this] {
      return telemetry::DumpPrometheus(CheckHealth(service_).Gauges());
    };
    handlers.statsz = [this] { return service_.StatszJson(); };
    handlers.tracez = [this] {
      // Chrome-trace JSON plus the slow-query ring: splice an extra
      // top-level key before the export's closing brace so the result
      // still loads in Perfetto (unknown keys are ignored there).
      std::string trace =
          telemetry::TraceRecorder::Instance().ExportChromeTraceJson();
      if (!trace.empty() && trace.back() == '}') trace.pop_back();
      trace += ",\"slowQueries\":";
      trace += service_.slow_query_log().ToJson();
      trace += "}";
      return trace;
    };
    handlers.healthz = [this] {
      const HealthReport report = CheckHealth(service_);
      return HttpExposition::Health{!report.degraded, report.HealthzJson()};
    };
    http_ = std::make_unique<HttpExposition>(std::move(handlers));
  }
  EventLoopPool::Options pool_options;
  pool_options.num_threads = options_.io_threads;
  pool_options.max_outbound_bytes = options_.max_outbound_bytes;
  event_pool_ =
      std::make_unique<EventLoopPool>(&service_, pool_options, http_.get());
  // Once a kShutdown response has been delivered, closing the listeners
  // unblocks the accept loops so the daemon can drain and exit.
  event_pool_->set_shutdown_callback([this] {
    listener_->Close();
    if (http_listener_ != nullptr) http_listener_->Close();
  });
  // epoll/eventfd creation can fail (fd exhaustion); refuse to serve.
  if (!event_pool_->Start()) return abandon();
  // Registered only once Start cannot fail, so the gauge never outlives
  // the pool it reads.
  service_.RegisterGauge("server.connections_live",
                         [pool = event_pool_.get()] {
                           return pool->connections_live();
                         });
  started_ = true;
  accept_thread_ = std::thread([this] {
    AcceptLoop(listener_.get(), EventLoopPool::Protocol::kSketchwire);
  });
  if (http_listener_ != nullptr) {
    http_accept_thread_ = std::thread([this] {
      AcceptLoop(http_listener_.get(), EventLoopPool::Protocol::kHttp);
    });
  }
  return true;
}

void SketchServer::AcceptLoop(SocketListener* listener,
                              EventLoopPool::Protocol protocol) {
  while (true) {
    const int fd = listener->AcceptRaw();
    if (fd < 0) break;  // listener closed
    if (service_.shutdown_requested()) {
      ::close(fd);
      break;
    }
    event_pool_->Adopt(fd, protocol);
  }
}

void SketchServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (http_accept_thread_.joinable()) http_accept_thread_.join();
  // Flushes every connection's pending responses and joins the I/O
  // threads. The pool object stays alive (stopped) because the statsz
  // gauge registered in Start() reads its live-connection count.
  if (event_pool_ != nullptr) event_pool_->Stop();
}

void SketchServer::Stop() {
  if (!started_) return;
  listener_->Close();
  if (http_listener_ != nullptr) http_listener_->Close();
  Wait();
  started_ = false;
}

uint16_t SketchServer::port() const {
  return listener_ == nullptr ? 0 : listener_->port();
}

uint16_t SketchServer::http_port() const {
  return http_listener_ == nullptr ? 0 : http_listener_->port();
}

}  // namespace sketch::server
