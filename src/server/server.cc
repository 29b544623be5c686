#include "server/server.h"

#include <unistd.h>

#include <utility>

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
  if (listener_ == nullptr) return false;
  // A failed Start leaves nothing running: no I/O threads, no health
  // sampler, no bound port.
  const auto abandon = [this] {
    if (health_monitor_ != nullptr) health_monitor_->Stop();
    health_monitor_.reset();
    http_.reset();
    if (event_pool_ != nullptr) event_pool_->Stop();
    event_pool_.reset();
    listener_->Close();
    listener_.reset();
    return false;
  };
  EventLoopPool::Options pool_options;
  pool_options.num_threads = options_.io_threads;
  pool_options.max_outbound_bytes = options_.max_outbound_bytes;
  event_pool_ = std::make_unique<EventLoopPool>(&service_, pool_options);
  // Once a kShutdown response has been delivered, closing the listener
  // unblocks the accept loop so the daemon can drain and exit.
  event_pool_->set_shutdown_callback([this] { listener_->Close(); });
  // epoll/eventfd creation can fail (fd exhaustion); refuse to serve.
  if (!event_pool_->Start()) return abandon();
  if (options_.enable_http) {
    HealthMonitor::Options health_options;
    health_options.period_ms =
        options_.health_period_ms == 0 ? 1000 : options_.health_period_ms;
    health_monitor_ =
        std::make_unique<HealthMonitor>(&service_, health_options);
    if (options_.health_period_ms != 0) health_monitor_->Start();

    HttpExposition::Handlers handlers;
    handlers.metrics = [this] {
      return telemetry::DumpPrometheus(health_monitor_->Gauges());
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
    handlers.healthz = [this] { return health_monitor_->HealthzJson(); };
    handlers.healthy = [this] { return !health_monitor_->degraded(); };
    http_ = std::make_unique<HttpExposition>(std::move(handlers));
    if (!http_->Start(options_.http_port)) return abandon();
  }
  // Registered only once Start cannot fail, so the gauge never outlives
  // the pool it reads.
  service_.RegisterGauge("server.connections_live",
                         [pool = event_pool_.get()] {
                           return pool->connections_live();
                         });
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void SketchServer::AcceptLoop() {
  while (true) {
    const int fd = listener_->AcceptRaw();
    if (fd < 0) break;  // listener closed
    if (service_.shutdown_requested()) {
      ::close(fd);
      break;
    }
    event_pool_->Adopt(fd);
  }
}

void SketchServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  // Flushes every connection's pending responses and joins the I/O
  // threads. The pool object stays alive (stopped) because the statsz
  // gauge registered in Start() reads its live-connection count.
  if (event_pool_ != nullptr) event_pool_->Stop();
}

void SketchServer::Stop() {
  if (!started_) return;
  if (http_ != nullptr) http_->Stop();
  if (health_monitor_ != nullptr) health_monitor_->Stop();
  if (listener_ != nullptr) listener_->Close();
  Wait();
  started_ = false;
}

uint16_t SketchServer::port() const {
  return listener_ == nullptr ? 0 : listener_->port();
}

uint16_t SketchServer::http_port() const {
  return http_ == nullptr ? 0 : http_->port();
}

}  // namespace sketch::server
