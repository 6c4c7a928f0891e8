#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <deque>
#include <stdexcept>

#include "net/socket.h"
#include "net/wire.h"

namespace perfbench {

namespace net = eva2::net;

struct TcpLoadgen::Conn
{
    net::Fd fd;
    std::vector<eva2::u8> out;
    size_t out_off = 0;
    net::FrameDecoder decoder;
    bool eof = false;

    bool pending() const { return out_off < out.size(); }
};

struct TcpLoadgen::Wire
{
    i64 conn = 0;
    i64 window = 0;
    i64 outstanding = 0;
    bool open = false;
    std::deque<i64> waiting; ///< Due frames held back for credit.
};

namespace {

/** Wire session ids are the session index + 1 (0 means "connection"). */
u32
wire_id(i64 session)
{
    return static_cast<u32>(session + 1);
}

void
send_blocking(int fd, const std::vector<eva2::u8> &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            throw net::NetError(net::errno_text("send"));
        }
    }
}

/** Non-blocking flush of a connection's queued bytes. */
void
flush(int fd, std::vector<eva2::u8> &out, size_t &off)
{
    while (off < out.size()) {
        const ssize_t n =
            ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return;
        }
        if (n < 0 && errno == EINTR) {
            continue;
        }
        throw net::NetError(net::errno_text("send"));
    }
    out.clear();
    off = 0;
}

/**
 * Read whatever is available into the decoder; returns false at EOF.
 * Blocking sockets read once, non-blocking ones until EAGAIN.
 */
bool
read_available(int fd, net::FrameDecoder &decoder, bool blocking)
{
    eva2::u8 buf[65536];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
            decoder.feed(buf, static_cast<size_t>(n));
            if (blocking || n < static_cast<ssize_t>(sizeof(buf))) {
                return true;
            }
            continue;
        }
        if (n == 0) {
            return false;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            return true;
        }
        throw net::NetError(net::errno_text("recv"));
    }
}

} // namespace

TcpLoadgen::TcpLoadgen(int port, i64 connections,
                       const std::vector<std::string> &names)
{
    for (i64 c = 0; c < connections; ++c) {
        auto conn = std::make_unique<Conn>();
        conn->fd = net::tcp_connect("127.0.0.1", port);
        net::set_tcp_nodelay(conn->fd.get());
        conns_.push_back(std::move(conn));
    }
    wires_.resize(names.size());
    std::vector<std::vector<eva2::u8>> hellos(conns_.size());
    std::vector<i64> expected(conns_.size(), 0);
    for (size_t s = 0; s < names.size(); ++s) {
        Wire &w = wires_[s];
        w.conn = static_cast<i64>(s % conns_.size());
        net::HelloMsg hello;
        hello.priority = 3; // Highest class: never overload-shed first.
        hello.name = names[s];
        const std::vector<eva2::u8> bytes =
            net::encode_hello(wire_id(static_cast<i64>(s)), hello);
        std::vector<eva2::u8> &buf = hellos[static_cast<size_t>(w.conn)];
        buf.insert(buf.end(), bytes.begin(), bytes.end());
        ++expected[static_cast<size_t>(w.conn)];
    }
    // Admission: every HELLO answered before the first frame is due.
    for (size_t c = 0; c < conns_.size(); ++c) {
        Conn &conn = *conns_[c];
        send_blocking(conn.fd.get(), hellos[c]);
        i64 acked = 0;
        while (acked < expected[c]) {
            if (!read_available(conn.fd.get(), conn.decoder, true)) {
                throw net::NetError("server closed during admission");
            }
            net::Message msg;
            while (conn.decoder.next(&msg)) {
                const i64 s = static_cast<i64>(msg.header.session) - 1;
                if (msg.header.type == net::MsgType::kNack) {
                    const net::NackMsg nack = net::parse_nack(msg.payload);
                    throw net::NetError(
                        "session " + std::to_string(s) + " rejected: " +
                        net::nack_reason_name(nack.reason) + " " +
                        nack.detail);
                }
                if (msg.header.type != net::MsgType::kHelloAck || s < 0 ||
                    s >= static_cast<i64>(wires_.size())) {
                    throw net::NetError("unexpected message at admission");
                }
                Wire &w = wires_[static_cast<size_t>(s)];
                w.window = net::parse_hello_ack(msg.payload).window;
                w.open = true;
                ++acked;
            }
        }
        net::set_nonblocking(conn.fd.get());
    }
}

TcpLoadgen::~TcpLoadgen() = default;

PhaseResult
TcpLoadgen::run(const OpenLoopInput &input, double drain_s,
                Tracer &tracer)
{
    PhaseResult result;
    result.frames.resize(input.frames.size());
    result.order.resize(input.frames.size());
    for (size_t s = 0; s < input.frames.size(); ++s) {
        result.frames[s].resize(input.frames[s].size());
    }
    result.send_lag_ms.reserve(input.schedule.size());

    const TimePoint t0 = Clock::now();
    auto due_at = [&](const Send &e) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(e.due_s));
    };
    const TimePoint deadline =
        (input.schedule.empty() ? t0 : due_at(input.schedule.back())) +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(drain_s));

    std::vector<i64> ready;
    std::vector<char> in_ready(wires_.size(), 0);
    auto mark_ready = [&](i64 s) {
        if (!in_ready[static_cast<size_t>(s)]) {
            in_ready[static_cast<size_t>(s)] = 1;
            ready.push_back(s);
        }
    };

    size_t next = 0;
    i64 in_flight = 0; // Sent, not yet answered.
    i64 held = 0;      // Due, held back for credit.
    std::vector<pollfd> pfds(conns_.size());
    net::Message msg;

    auto on_message = [&](const net::Message &m, TimePoint now) {
        const i64 s = static_cast<i64>(m.header.session) - 1;
        if (s < 0 || s >= static_cast<i64>(wires_.size())) {
            throw net::NetError("message for unknown session");
        }
        const i64 f = static_cast<i64>(m.header.seq);
        std::vector<FrameRec> &recs = result.frames[static_cast<size_t>(s)];
        if (f < 0 || f >= static_cast<i64>(recs.size())) {
            throw net::NetError("outcome for unknown frame");
        }
        FrameRec &rec = recs[static_cast<size_t>(f)];
        Wire &w = wires_[static_cast<size_t>(s)];
        --w.outstanding;
        --in_flight;
        if (m.header.type == net::MsgType::kOutcome) {
            const net::OutcomeMsg om = net::parse_outcome(m.payload);
            rec.answered = true;
            rec.is_key = om.is_key;
            rec.failed = om.failed;
            rec.top1 = om.top1;
            rec.digest = om.output_digest;
            result.order[static_cast<size_t>(s)].push_back(f);
        } else if (m.header.type == net::MsgType::kShed) {
            const net::ShedMsg sm = net::parse_shed(m.payload);
            rec.shed = true;
            rec.shed_reason = net::shed_reason_name(sm.reason);
        } else {
            throw net::NetError("unexpected message type " +
                                std::to_string(static_cast<int>(
                                    m.header.type)));
        }
        rec.done = now;
        tracer.async_span(rec.shed ? "shed" : (rec.is_key ? "key" : "pred"),
                          "frame", static_cast<u64>(s) << 32 |
                                       static_cast<u64>(f),
                          rec.due, now, kLaneFrames);
        if (!w.waiting.empty()) {
            mark_ready(s);
        }
    };

    for (;;) {
        TimePoint now = Clock::now();
        while (next < input.schedule.size() &&
               due_at(input.schedule[next]) <= now) {
            const Send &e = input.schedule[next++];
            result.frames[static_cast<size_t>(e.session)]
                         [static_cast<size_t>(e.frame)]
                             .due = due_at(e);
            wires_[static_cast<size_t>(e.session)].waiting.push_back(
                e.frame);
            ++held;
            mark_ready(e.session);
        }
        for (const i64 s : ready) {
            in_ready[static_cast<size_t>(s)] = 0;
            Wire &w = wires_[static_cast<size_t>(s)];
            Conn &conn = *conns_[static_cast<size_t>(w.conn)];
            while (w.outstanding < w.window && !w.waiting.empty()) {
                const i64 f = w.waiting.front();
                w.waiting.pop_front();
                const TimePoint e0 = Clock::now();
                const std::vector<eva2::u8> bytes = net::encode_frame(
                    wire_id(s), static_cast<u64>(f),
                    input.frames[static_cast<size_t>(s)]
                                [static_cast<size_t>(f)]);
                conn.out.insert(conn.out.end(), bytes.begin(),
                                bytes.end());
                const TimePoint e1 = Clock::now();
                tracer.span("net", "encode_frame", e0, e1,
                            kLaneGenerator);
                FrameRec &rec = result.frames[static_cast<size_t>(s)]
                                             [static_cast<size_t>(f)];
                rec.sent = e1;
                result.send_lag_ms.push_back(ms_between(rec.due, e1));
                ++w.outstanding;
                ++in_flight;
                --held;
            }
        }
        ready.clear();
        for (auto &conn : conns_) {
            if (conn->pending()) {
                flush(conn->fd.get(), conn->out, conn->out_off);
            }
        }

        now = Clock::now();
        if (next == input.schedule.size() && in_flight == 0 && held == 0) {
            break;
        }
        if (now >= deadline) {
            break; // The rest count as unanswered.
        }
        const TimePoint wake = next < input.schedule.size()
                                   ? due_at(input.schedule[next])
                                   : deadline;
        const auto wait_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                wake - now)
                .count();
        timespec ts{};
        if (wait_ns > 0) {
            ts.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
            ts.tv_nsec = static_cast<long>(wait_ns % 1000000000);
        }
        for (size_t c = 0; c < conns_.size(); ++c) {
            pfds[c].fd = conns_[c]->fd.get();
            pfds[c].events = static_cast<short>(
                POLLIN | (conns_[c]->pending() ? POLLOUT : 0));
            pfds[c].revents = 0;
        }
        const int rc = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
        if (rc < 0 && errno != EINTR) {
            throw net::NetError(net::errno_text("ppoll"));
        }
        if (rc <= 0) {
            continue;
        }
        for (size_t c = 0; c < conns_.size(); ++c) {
            Conn &conn = *conns_[c];
            if (pfds[c].revents & POLLOUT) {
                flush(conn.fd.get(), conn.out, conn.out_off);
            }
            if (!(pfds[c].revents & (POLLIN | POLLERR | POLLHUP))) {
                continue;
            }
            const bool open =
                read_available(conn.fd.get(), conn.decoder, false);
            const TimePoint arrived = Clock::now();
            while (conn.decoder.next(&msg)) {
                on_message(msg, arrived);
            }
            tracer.span("net", "decode_outcomes", arrived, Clock::now(),
                        kLaneGenerator);
            if (!open) {
                throw net::NetError("server closed the connection");
            }
        }
    }
    return result;
}

void
TcpLoadgen::close()
{
    for (auto &c : conns_) {
        Conn &conn = *c;
        if (!conn.fd.valid()) {
            continue;
        }
        const std::vector<eva2::u8> bye = net::encode_bye(0);
        conn.out.insert(conn.out.end(), bye.begin(), bye.end());
        // The server flushes what it owes, then closes: read to EOF.
        const TimePoint give_up = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < give_up) {
            if (conn.pending()) {
                flush(conn.fd.get(), conn.out, conn.out_off);
            }
            pollfd p{conn.fd.get(),
                     static_cast<short>(POLLIN |
                                        (conn.pending() ? POLLOUT : 0)),
                     0};
            if (::poll(&p, 1, 100) > 0 && (p.revents & POLLIN) &&
                !read_available(conn.fd.get(), conn.decoder, false)) {
                break;
            }
        }
        conn.fd.reset();
    }
}

} // namespace perfbench
