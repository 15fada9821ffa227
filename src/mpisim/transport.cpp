#include "mpisim/transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"
#include "mpisim/socket_transport.hpp"

namespace tfx::mpisim {

// ---------------------------------------------------------------------------
// channel_store - per-source FIFO channels with per-destination wakeup
// (the layout of a real shared-memory ring transport; shared by the
// shm and socket protocols).
// ---------------------------------------------------------------------------

namespace detail {

void channel_store::configure(int ranks) {
  const std::scoped_lock lock(mutex_);
  chan_.resize(static_cast<std::size_t>(ranks));
}

void channel_store::purge_below(std::uint32_t epoch) {
  {
    const std::scoped_lock lock(mutex_);
    for (auto& q : chan_) {
      std::erase_if(q, [epoch](const wire_message& m) {
        return m.epoch < epoch;
      });
    }
  }
  arrived_.notify_all();
}

void channel_store::raise_floor(std::uint32_t epoch) {
  {
    const std::scoped_lock lock(mutex_);
    floor_ = std::max(floor_, epoch);
    for (auto& q : chan_) {
      std::erase_if(q, [this](const wire_message& m) {
        return m.epoch < floor_;
      });
    }
  }
  arrived_.notify_all();
}

void channel_store::deposit(wire_message msg, bool front) {
  {
    const std::scoped_lock lock(mutex_);
    if (msg.epoch < floor_) return;  // stale straggler: fenced off
    auto& q = chan_[static_cast<std::size_t>(msg.source)];
    if (front) {
      q.insert(q.begin(), std::move(msg));
    } else {
      q.push_back(std::move(msg));
    }
  }
  arrived_.notify_all();
}

wire_message channel_store::collect(int src, int tag) {
  std::unique_lock lock(mutex_);
  const std::size_t lo = src == any_source ? 0
                                                    : static_cast<std::size_t>(src);
  const std::size_t hi =
      src == any_source ? chan_.size() : static_cast<std::size_t>(src) + 1;
  for (;;) {
    for (std::size_t s = lo; s < hi; ++s) {
      auto& q = chan_[s];
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->kind != msg_kind::payload) continue;
        if (tag != any_tag && it->tag != tag) continue;
        wire_message msg = std::move(*it);
        q.erase(it);
        return msg;
      }
    }
    // No payload matches: a dead channel from the awaited source ends
    // the wait (the notice stays queued - the channel will not heal).
    for (std::size_t s = lo; s < hi; ++s) {
      for (const auto& m : chan_[s]) {
        if (m.kind == msg_kind::transport_down) return m;
      }
    }
    arrived_.wait(lock);
  }
}

wire_message channel_store::collect_faulty(int src, int tag) {
  std::unique_lock lock(mutex_);
  const std::size_t lo = src == any_source ? 0
                                                    : static_cast<std::size_t>(src);
  const std::size_t hi =
      src == any_source ? chan_.size() : static_cast<std::size_t>(src) + 1;
  for (;;) {
    // Pass 1: real traffic, lowest sequence number first (ties: lowest
    // source) so a reordered queue still delivers per-stream in order.
    std::vector<wire_message>* best_q = nullptr;
    std::vector<wire_message>::iterator best;
    for (std::size_t s = lo; s < hi; ++s) {
      auto& q = chan_[s];
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->kind == msg_kind::crash_notice ||
            it->kind == msg_kind::transport_down) {
          continue;
        }
        if (tag != any_tag && it->tag != tag) continue;
        if (best_q == nullptr || it->seq < best->seq ||
            (it->seq == best->seq && it->source < best->source)) {
          best_q = &q;
          best = it;
        }
      }
    }
    if (best_q != nullptr) {
      wire_message msg = std::move(*best);
      best_q->erase(best);
      return msg;
    }
    // Pass 2: only when no real message matches may a notice fire -
    // the awaited message will never arrive. Left in the queue: it
    // poisons every later collect too.
    for (std::size_t s = lo; s < hi; ++s) {
      for (const auto& m : chan_[s]) {
        if (m.kind == msg_kind::crash_notice ||
            m.kind == msg_kind::transport_down) {
          return m;
        }
      }
    }
    arrived_.wait(lock);
  }
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// shm - per-(src,dst) FIFO channels (channel_store): senders lock only
// their target and each stream has its own queue.
// ---------------------------------------------------------------------------

class shm_transport final : public transport {
 public:
  explicit shm_transport(int ranks) : ranks_(ranks) {
    stores_.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      stores_.push_back(std::make_unique<detail::channel_store>());
      stores_.back()->configure(ranks);
    }
  }

  [[nodiscard]] const char* name() const noexcept override { return "shm"; }
  [[nodiscard]] int ranks() const noexcept override { return ranks_; }

  void reset() override {
    for (auto& s : stores_) s->clear();
  }

  void deposit(int dst, wire_message msg, bool front) override {
    stores_[static_cast<std::size_t>(dst)]->deposit(std::move(msg), front);
  }

  [[nodiscard]] wire_message collect(int dst, int src, int tag) override {
    return stores_[static_cast<std::size_t>(dst)]->collect(src, tag);
  }

  [[nodiscard]] wire_message collect_faulty(int dst, int src,
                                            int tag) override {
    return stores_[static_cast<std::size_t>(dst)]->collect_faulty(src, tag);
  }

  void broadcast_crash(int source, double vtime) override {
    for (int dst = 0; dst < ranks_; ++dst) {
      if (dst == source) continue;
      deposit(dst,
              wire_message{source, 0, vtime, {}, 0, 0,
                           msg_kind::crash_notice},
              false);
    }
  }

  void drain(int dst) override {
    stores_[static_cast<std::size_t>(dst)]->clear();
  }

 private:
  int ranks_;
  std::vector<std::unique_ptr<detail::channel_store>> stores_;
};

}  // namespace

// ---------------------------------------------------------------------------
// transport_manager
// ---------------------------------------------------------------------------

transport_kind transport_manager::parse(std::string_view name) {
  if (name == "shm") return transport_kind::shm;
  if (name == "socket" || name == "tcp") return transport_kind::socket;
  throw std::invalid_argument("unknown transport '" + std::string(name) +
                              "' (expected shm|socket)");
}

const char* transport_manager::name_of(transport_kind kind) noexcept {
  switch (kind) {
    case transport_kind::shm: return "shm";
    case transport_kind::socket: return "socket";
  }
  return "?";
}

std::unique_ptr<transport> transport_manager::make(
    int ranks, const transport_options& options) {
  TFX_EXPECTS(ranks > 0);
  switch (options.kind) {
    case transport_kind::shm:
      return std::make_unique<shm_transport>(ranks);
    case transport_kind::socket:
      return make_socket_transport(ranks, options.socket);
  }
  TFX_EXPECTS(false && "unreachable transport kind");
  return nullptr;
}

bool transport_manager::loopback_available() noexcept {
  return socket_loopback_available();
}

}  // namespace tfx::mpisim
