/**
 * @file
 * The benchmark's TCP load generator: one thread, one poll loop, up to
 * a handful of connections multiplexing many sessions.
 *
 * It speaks the wire protocol through the library's public
 * net::encode_frame / net::FrameDecoder, so each OUTCOME is stamped
 * the moment its bytes arrive. (net::Client blocks in wait() per
 * ticket, which would add the client's own queueing to the numbers.)
 * Frames are sent open loop: each is due at a scheduled time, and one
 * that waits in the generator for credit is late, not exempt — its
 * latency runs from the due time. A shed frame counts as lost.
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "tensor/tensor.h"
#include "trace.h"

namespace perfbench {

/** One scheduled frame: `frame` of `session`, due `due_s` after start. */
struct Send
{
    double due_s = 0.0;
    i64 session = 0;
    i64 frame = 0;
};

/** Frames and send schedule of one open-loop phase. */
struct OpenLoopInput
{
    std::vector<std::string> names;                ///< Per session.
    std::vector<std::vector<eva2::Tensor>> frames; ///< Per session.
    std::vector<Send> schedule; ///< Sorted by due_s.
};

/** What one phase of traffic observed. */
struct PhaseResult
{
    std::vector<std::vector<FrameRec>> frames; ///< [session][frame]
    std::vector<double> send_lag_ms; ///< Sent minus due, per frame.
    /** Per session, frame indices in the order outcomes arrived. */
    std::vector<std::vector<i64>> order;
    /** In-process only: how long each Session::submit blocked. */
    std::vector<double> submit_us;
    double wall_s = 0.0; ///< First due time to last outcome.
};

class TcpLoadgen
{
  public:
    /**
     * Connect `connections` sockets to 127.0.0.1:`port` and admit
     * every named session (HELLO, then wait for its HELLO_ACK),
     * sessions dealt round-robin over the connections. Throws on any
     * NACK or socket failure.
     */
    TcpLoadgen(int port, i64 connections,
               const std::vector<std::string> &names);
    ~TcpLoadgen();

    TcpLoadgen(const TcpLoadgen &) = delete;
    TcpLoadgen &operator=(const TcpLoadgen &) = delete;

    /**
     * Send every scheduled frame at its due time, as credit allows,
     * and stamp outcomes as they arrive. Returns once every frame is
     * answered, or `drain_s` after the last due time (the rest count
     * as unanswered).
     */
    PhaseResult run(const OpenLoopInput &input, double drain_s,
                    Tracer &tracer);

    /** Orderly close: BYE on every connection, then read to EOF. */
    void close();

  private:
    struct Conn;
    struct Wire;

    std::vector<std::unique_ptr<Conn>> conns_;
    std::vector<Wire> wires_;
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
