/**
 * @file
 * net::Client — a wire-protocol client for net::Server, used by the
 * loopback tests, the loadgen bench, and the example demo.
 *
 * One Client owns one TCP connection and one reader thread; any
 * number of sessions multiplex over it (each with its own wire id).
 * Submission respects the server's credit window by default —
 * submit() blocks while the window is full, mirroring a well-behaved
 * closed-loop sender — and submit_uncredited() deliberately overruns
 * it, which is how the tests and the open-loop loadgen provoke the
 * server's shedding paths.
 *
 * Results come back as NetOutcome: either the completed frame's
 * digest/top-1 (matching the in-process FrameOutcome bit for bit) or
 * a typed shed. The per-session chained digest mirrors the engine's
 * StreamReport digest chain, so end-to-end identity is one u64
 * comparison.
 *
 * Threading: submit and wait are safe from any thread; the reader
 * dispatches every server message under one client mutex and
 * broadcasts a condition variable. close() sends BYE, waits for the
 * server's EOF, and joins the reader.
 */
#ifndef EVA2_NET_CLIENT_H
#define EVA2_NET_CLIENT_H

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "tensor/tensor.h"
#include "util/digest.h"
#include "util/mutex.h"

namespace eva2::net {

/** What the server said about one submitted frame. */
struct NetOutcome
{
    u64 seq = 0;
    bool shed = false; ///< Dropped before the engine (see shed_reason).
    ShedReason shed_reason = ShedReason::kOverload;
    bool is_key = false;
    bool failed = false;
    i64 top1 = -1;
    u64 output_digest = 0;
    /** RFBME mean error; 0 when RFBME did not run: the first frame
     * and schedule-forced keys. */
    double match_error = 0.0;
};

class Client;

/** One live session over a Client connection. Created by open_session. */
class ClientSession
{
  public:
    ClientSession(const ClientSession &) = delete;
    ClientSession &operator=(const ClientSession &) = delete;

    const std::string &name() const { return name_; }

    /** The credit window granted by the server's HELLO_ACK. */
    u32 window() const;

    /**
     * Send one frame, blocking while the credit window is full (the
     * closed-loop sender shape). Returns the frame's seq for wait().
     */
    u64 submit(const Tensor &frame);

    /**
     * Non-blocking submit: false (nothing sent) when the window is
     * full. The open-loop sender shape.
     */
    bool try_submit(const Tensor &frame, u64 *seq);

    /**
     * Send regardless of credit — a deliberately misbehaving sender.
     * The server answers the overrun with SHED/window rather than
     * queueing; tests use this to pin that bound.
     */
    u64 submit_uncredited(const Tensor &frame);

    /**
     * Block until the server answers seq (OUTCOME or SHED). Throws
     * NetError if the connection dies first.
     */
    NetOutcome wait(u64 seq);

    /** Sent but not yet answered. */
    i64 outstanding() const;

    /** Times submit() had to block on a full window. */
    i64 credit_stalls() const;

    /**
     * Chained digest over completed (non-shed, non-failed) frames —
     * digest_combine-folded from kDigestSeed exactly like the
     * engine's per-stream StreamReport digest.
     */
    u64 chained_digest() const;

    i64 completed_frames() const;
    i64 shed_frames() const;

  private:
    friend class Client;

    ClientSession(Client *client, u32 wire_id, std::string name);

    u64 send_frame_locked(const Tensor &frame)
        REQUIRES(client_->mutex_);

    Client *client_;
    u32 wire_id_;
    std::string name_;

    // All below guarded by the owning Client's mutex. (The Client's
    // own accesses go through Mutex::assert_held — the analysis
    // cannot see that `session->client_` is the Client holding the
    // lock; see docs/static_analysis.md.)
    enum class State
    {
        kOpening,
        kOpen,
        kRejected,
    };
    State state_ GUARDED_BY(client_->mutex_) = State::kOpening;
    /** Valid when kRejected. */
    NackMsg nack_ GUARDED_BY(client_->mutex_);
    u32 window_ GUARDED_BY(client_->mutex_) = 0;
    u64 next_seq_ GUARDED_BY(client_->mutex_) = 0;
    i64 outstanding_ GUARDED_BY(client_->mutex_) = 0;
    i64 credit_stalls_ GUARDED_BY(client_->mutex_) = 0;
    i64 completed_ GUARDED_BY(client_->mutex_) = 0;
    i64 shed_ GUARDED_BY(client_->mutex_) = 0;
    u64 chained_digest_ GUARDED_BY(client_->mutex_) = kDigestSeed;
    /** Answered, not yet wait()ed. */
    std::map<u64, NetOutcome> results_ GUARDED_BY(client_->mutex_);
};

/** One TCP connection to a net::Server plus its reader thread. */
class Client
{
  public:
    /** Connects (blocking) and starts the reader thread. */
    Client(const std::string &host, int port);

    /** close()s if still open. */
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * HELLO/HELLO_ACK handshake for a named session at a priority
     * class (0 sheds first, 3 last). Throws NetError carrying the
     * typed reason if the server NACKs. The reference is stable for
     * the client's lifetime.
     */
    ClientSession &open_session(const std::string &name, u8 priority = 0);

    /**
     * Orderly shutdown: BYE, wait for the server's EOF, join the
     * reader. Idempotent. Outstanding waits are woken with NetError.
     */
    void close();

    /** True once the server sent BYE (e.g. its graceful drain). */
    bool server_closed() const;

  private:
    friend class ClientSession;

    void reader_loop();
    void dispatch(const Message &msg) REQUIRES(mutex_);
    /** Sends are serialized under mutex_. */
    void send_locked(const std::vector<u8> &bytes) REQUIRES(mutex_);
    void check_alive_locked() const REQUIRES(mutex_);

    Fd fd_;
    std::thread reader_;

    mutable Mutex mutex_;
    CondVar cv_;
    /** close() ran (or is running). */
    bool closed_ GUARDED_BY(mutex_) = false;
    /** Reader saw EOF/error. */
    bool reader_done_ GUARDED_BY(mutex_) = false;
    /** Server announced drain/close. */
    bool server_bye_ GUARDED_BY(mutex_) = false;
    /** Nonempty if the reader died hard. */
    std::string reader_error_ GUARDED_BY(mutex_);
    u32 next_wire_id_ GUARDED_BY(mutex_) = 1;
    std::map<u32, std::unique_ptr<ClientSession>> sessions_
        GUARDED_BY(mutex_);
};

} // namespace eva2::net

#endif // EVA2_NET_CLIENT_H
