#include "transport/flow.hpp"

#include "net/types.hpp"

namespace xmp::transport {

std::unique_ptr<CongestionControl> make_cc(const CcConfig& cfg) {
  switch (cfg.kind) {
    case CcConfig::Kind::Reno:
      return std::make_unique<RenoCc>();
    case CcConfig::Kind::Dctcp:
      return std::make_unique<DctcpCc>(cfg.dctcp);
    case CcConfig::Kind::Bos:
      return std::make_unique<BosCc>(cfg.bos);
  }
  return nullptr;  // unreachable
}

SenderConfig sender_config_for(const CcConfig& cfg) {
  SenderConfig sc;
  switch (cfg.kind) {
    case CcConfig::Kind::Reno:
      sc.ecn_capable = false;
      sc.min_cwnd = 1.0;
      break;
    case CcConfig::Kind::Dctcp:
      sc.ecn_capable = true;
      sc.min_cwnd = 1.0;
      break;
    case CcConfig::Kind::Bos:
      sc.ecn_capable = true;
      sc.min_cwnd = 2.0;  // paper: 2 segments is the cwnd floor
      break;
  }
  return sc;
}

ReceiverConfig receiver_config_for(const CcConfig& cfg) {
  ReceiverConfig rc;
  switch (cfg.kind) {
    case CcConfig::Kind::Reno:
      rc.codec = EcnCodec::None;
      break;
    case CcConfig::Kind::Dctcp:
      rc.codec = EcnCodec::Dctcp;
      break;
    case CcConfig::Kind::Bos:
      rc.codec = EcnCodec::XmpCounter;
      break;
  }
  return rc;
}

Flow::Flow(sim::Scheduler& sched, net::Host& src, net::Host& dst, const Config& cfg)
    : Flow{sched, sched, src, dst, cfg} {}

Flow::Flow(sim::Scheduler& src_sched, sim::Scheduler& dst_sched, net::Host& src, net::Host& dst,
           const Config& cfg)
    : sched_{src_sched}, id_{cfg.id}, size_bytes_{cfg.size_bytes} {
  const std::uint16_t tag = cfg.path_tag_explicit
                                ? cfg.path_tag
                                : static_cast<std::uint16_t>(net::mix64(cfg.id));

  source_ = std::make_unique<FixedSource>(net::segments_for_bytes(cfg.size_bytes),
                                          [this] { on_source_done(); });

  SenderConfig sc = sender_config_for(cfg.cc);
  if (cfg.tune_sender) cfg.tune_sender(sc);
  ReceiverConfig rc = receiver_config_for(cfg.cc);
  if (cfg.tune_receiver) cfg.tune_receiver(rc);

  receiver_ =
      std::make_unique<TcpReceiver>(dst_sched, dst, src.id(), cfg.id, /*subflow=*/0, tag, rc);
  sender_ = std::make_unique<TcpSender>(src_sched, src, dst.id(), cfg.id, /*subflow=*/0, tag,
                                        *source_, make_cc(cfg.cc), sc);
}

void Flow::start() {
  if (started_) return;
  started_ = true;
  start_time_ = sched_.now();
  sender_->start();
}

void Flow::on_source_done() {
  finished_ = true;
  finish_time_ = sched_.now();
  if (on_complete_) on_complete_();
}

void Flow::checkpoint(core::ckpt::Io& io) {
  io.b(started_);
  io.b(finished_);
  io.time(start_time_);
  io.time(finish_time_);
  source_->checkpoint(io);
  sender_->checkpoint(io);
  receiver_->checkpoint(io);
}

std::int64_t Flow::delivered_bytes() const {
  if (finished_) return size_bytes_;
  const std::int64_t bytes = source_->delivered() * net::kMssBytes;
  return bytes < size_bytes_ ? bytes : size_bytes_;
}

double Flow::goodput_bps() const {
  if (!finished_ || finish_time_ <= start_time_) return 0.0;
  return static_cast<double>(size_bytes_) * 8.0 / (finish_time_ - start_time_).sec();
}

}  // namespace xmp::transport
