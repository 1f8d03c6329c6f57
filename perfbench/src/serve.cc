// serve_1node / serve_3node: StreamServer nodes run as forked children
// (this binary re-executed with --node), durable settings on — ingest log
// (fsync off), exactly-once admission, runtime fault tolerance with
// checkpoint-anchored log truncation — serving a logistic-regression model
// on 64x10 batches spread over 8 streams and 2 tenants. Load comes from at
// most nproc blocking StreamClients in this process, one thread each. Every
// base batch is submitted unlabeled (a read answered by RESULT) and, a fixed
// lag later, labeled (a write that trains). Phases:
//
//   1. open loop at the spec's arrival rate, every request timed from its
//      due time (the generator waits for the next due time inside
//      PollResults, so RESULTs are stamped as they arrive);
//   2. closed loop: each client sends its next batch once the ACK is in;
//   3. recovery rounds: SIGKILL the leader (3 nodes) or the only node (1
//      node, restarted on the same data), timing the kill to the next ACK.
//
// The generator is deliberately not RunScenarioOverNetwork: its paced loop
// sleeps to the next arrival and only absorbs RESULTs after the next Submit
// returns, which stamps results up to one inter-arrival gap late and never
// records ACK latency.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "ingest/dedup.h"
#include "ingest/ingest_log.h"
#include "ml/models.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "scenarios/scenario.h"
#include "scenarios/spec.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using freeway::Batch;
using freeway::ClientEndpoint;
using freeway::ClientOptions;
using freeway::GeneratedScenario;
using freeway::StreamClient;
using freeway::StreamResult;

namespace {

/// Cold starts per run; set-up time is their median.
constexpr int kSetupRepeats = 5;
/// Kill/recover rounds per run; recovery time is their median. A restart
/// costs milliseconds, an election a hundred or more.
int RecoveryRounds(size_t nodes) { return nodes == 1 ? 25 : 9; }
constexpr int kMaxClients = 4;
/// Segments per phase, each on fresh connections.
constexpr size_t kSegments = 12;
constexpr int64_t kDrainDeadlineMs = 3000;
/// Raft timing of the 3-node group: 5 ms ticks, elections after 100-150 ms
/// of leader silence, heartbeats every 10 ms.
constexpr int kTickMillis = 5;
constexpr int kElectionMinTicks = 20;
constexpr int kElectionMaxTicks = 30;
constexpr int kHeartbeatTicks = 2;
/// Small segments so rotation and checkpoint-anchored pruning happen within
/// one run.
constexpr uint64_t kSegmentBytes = 256 << 10;

// ---------------------------------------------------------------------------
// Server node (child process).

volatile sig_atomic_t g_terminate = 0;
void OnTerm(int) { g_terminate = 1; }

std::vector<uint16_t> ParsePorts(const std::string& text) {
  std::vector<uint16_t> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t comma = text.find(',', pos);
    out.push_back(static_cast<uint16_t>(
        std::strtoul(text.substr(pos, comma - pos).c_str(), nullptr, 10)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string NodeDir(const std::string& root, size_t index) {
  return root + "/n" + std::to_string(index);
}

}  // namespace

int RunServerNode(int argc, char** argv) {
  size_t index = 0;
  std::vector<uint16_t> ports;
  std::string root;
  size_t dim = 10, classes = 2;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--index") index = std::strtoul(value.c_str(), nullptr, 10);
    else if (key == "--ports") ports = ParsePorts(value);
    else if (key == "--root") root = value;
    else if (key == "--dim") dim = std::strtoul(value.c_str(), nullptr, 10);
    else if (key == "--classes") classes = std::strtoul(value.c_str(), nullptr, 10);
  }
  if (ports.empty() || index >= ports.size() || root.empty()) return 2;
  std::signal(SIGTERM, OnTerm);

  freeway::MetricsRegistry registry;
  freeway::ThreadPool::Global()->AttachMetrics(&registry);
  freeway::ServerOptions options;
  options.metrics = &registry;
  options.port = ports[index];
  options.num_workers = 1;
  options.runtime.num_shards = 4;
  options.ingest.enabled = true;
  options.ingest.log_dir = NodeDir(root, index) + "/log";
  options.ingest.segment_max_bytes = kSegmentBytes;
  options.runtime.fault.enabled = true;
  options.runtime.fault.checkpoint_dir = NodeDir(root, index) + "/ckpt";
  if (ports.size() > 1) {
    auto& r = options.replication;
    r.enabled = true;
    r.node_id = index + 1;
    r.data_dir = NodeDir(root, index) + "/raft";
    r.tick_millis = kTickMillis;
    r.election_timeout_min_ticks = kElectionMinTicks;
    r.election_timeout_max_ticks = kElectionMaxTicks;
    r.heartbeat_ticks = kHeartbeatTicks;
    r.seed = static_cast<uint64_t>(::getpid());
    for (size_t j = 0; j < ports.size(); ++j) {
      if (j != index) r.peers.push_back({j + 1, "127.0.0.1", ports[j]});
    }
  }
  auto prototype = freeway::MakeLogisticRegression(dim, classes);
  freeway::StreamServer server(*prototype, std::move(options));
  const freeway::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "node %zu: %s\n", index, started.ToString().c_str());
    return 3;
  }
  while (g_terminate == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.Stop();
  return 0;
}

namespace {

// ---------------------------------------------------------------------------
// Parent side: node processes.

uint16_t ReservePort() {
  auto fd = freeway::net::CreateListenSocket("127.0.0.1", 0, 4, false);
  if (!fd.ok()) return 0;
  auto port = freeway::net::LocalPort(*fd);
  freeway::net::CloseFd(*fd);
  return port.ok() ? *port : 0;
}

class Cluster {
 public:
  Cluster(const RunArgs& args, size_t nodes, std::string root, size_t dim,
          size_t classes)
      : args_(args), root_(std::move(root)), dim_(dim), classes_(classes),
        pids_(nodes, -1) {
    for (size_t i = 0; i < nodes; ++i) ports_.push_back(ReservePort());
  }
  ~Cluster() {
    for (size_t i = 0; i < pids_.size(); ++i) Kill(i, SIGKILL);
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  size_t size() const { return pids_.size(); }
  pid_t pid(size_t i) const { return pids_[i]; }
  uint16_t port(size_t i) const { return ports_[i]; }

  bool Spawn(size_t i) {
    std::string port_list;
    for (uint16_t p : ports_) {
      port_list += (port_list.empty() ? "" : ",") + std::to_string(p);
    }
    std::vector<std::string> argv_s = {
        args_.self_path, "--node", "--index", std::to_string(i),
        "--ports", port_list, "--root", root_,
        "--dim", std::to_string(dim_), "--classes", std::to_string(classes_)};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const std::string log = args_.work_dir + "/node" + std::to_string(i) + ".log";
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    pids_[i] = pid;
    return true;
  }

  bool SpawnAll() {
    for (size_t i = 0; i < size(); ++i) {
      if (!Spawn(i)) return false;
    }
    return true;
  }

  /// Signals node i and waits for it to exit.
  void Kill(size_t i, int sig) {
    if (pids_[i] <= 0) return;
    ::kill(pids_[i], sig);
    int status = 0;
    while (::waitpid(pids_[i], &status, 0) < 0 && errno == EINTR) {
    }
    pids_[i] = -1;
  }

  void StopAll() {
    for (size_t i = 0; i < size(); ++i) {
      if (pids_[i] > 0) ::kill(pids_[i], SIGTERM);
    }
    for (size_t i = 0; i < size(); ++i) Kill(i, SIGTERM);
  }

  std::vector<ClientEndpoint> Endpoints() const {
    std::vector<ClientEndpoint> out;
    for (uint16_t p : ports_) out.push_back({"127.0.0.1", p});
    return out;
  }

  std::string Get(size_t i, const std::string& path) const {
    auto body = freeway::HttpGet("127.0.0.1", ports_[i], path, 2000);
    return body.ok() ? *body : std::string();
  }

 private:
  const RunArgs& args_;
  std::string root_;
  size_t dim_, classes_;
  std::vector<pid_t> pids_;
  std::vector<uint16_t> ports_;
};

/// Options of a client that tries `first_port` (the last known leader)
/// before the rest of the group.
ClientOptions MakeClientOptions(const Cluster& cluster, uint32_t tenant,
                                uint16_t first_port = 0) {
  ClientOptions o;
  o.endpoints = cluster.Endpoints();
  std::stable_partition(o.endpoints.begin(), o.endpoints.end(),
                        [&](const ClientEndpoint& e) { return e.port == first_port; });
  o.tenant_id = tenant;
  o.connect_timeout_millis = 200;
  // A killed node's port refuses at once; a short reply timeout bounds the
  // wait on a half-dead connection.
  o.reply_timeout_millis = 1000;
  o.max_submit_attempts = 2000;
  o.backoff_initial_micros = 100;
  o.backoff_max_micros = 1000;
  return o;
}

/// Reads `"key": <number>` after the "totals" object start of a /stats
/// document.
double StatsTotal(const std::string& json, const std::string& key) {
  const size_t totals = json.find("\"totals\"");
  if (totals == std::string::npos) return -1;
  const size_t at = json.find("\"" + key + "\": ", totals);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

// ---------------------------------------------------------------------------
// Load generator.

struct Tape {
  GeneratedScenario scenario;
  std::vector<Batch> unlabeled;
  int64_t cycle_ns = 0;
};

/// One connection's life: a StreamClient with its own exactly-once
/// identity. Each measured segment opens a fresh session, so one run
/// samples many independent TCP connections instead of four.
struct Session {
  std::unique_ptr<StreamClient> client;
  uint64_t submits = 0;  ///< Submit calls so far = the sequence used last.
  std::vector<uint64_t> labeled_acked_seqs;
};

struct ClientState {
  uint32_t tenant = 0;
  std::vector<Session> sessions;  ///< back() is live.
  /// Indices into the tape's events this client owns (its streams), in
  /// tape order.
  std::vector<size_t> mine;
  uint64_t position = 0;  ///< Next event (cycles through `mine`).
  Batch scratch;

  StreamClient& live() { return *sessions.back().client; }

  // Open-loop timing.
  DueTimeLog acks, results;
  std::vector<double> submit_us;
  std::map<std::pair<uint64_t, int64_t>, uint64_t> awaiting;  ///< → position.

  // Outcomes.
  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  uint64_t closed_rows = 0;
  uint64_t correct_rows = 0, scored_rows = 0;
  uint64_t mech[3] = {0, 0, 0}, shift[3] = {0, 0, 0};
  SpanBuffer spans{false};
};

const freeway::ScenarioEvent& EventAt(const Tape& tape, const ClientState& c,
                                      uint64_t p) {
  return tape.scenario.events[c.mine[p % c.mine.size()]];
}

int64_t BatchIndex(const Tape& tape, const ClientState& c, uint64_t p) {
  const uint64_t cycle = p / c.mine.size();
  return static_cast<int64_t>(cycle * tape.scenario.batches.size() +
                              EventAt(tape, c, p).base_index);
}

int64_t DueNs(const Tape& tape, const ClientState& c, uint64_t p,
              int64_t start_ns) {
  const uint64_t cycle = p / c.mine.size();
  return start_ns + static_cast<int64_t>(cycle) * tape.cycle_ns +
         static_cast<int64_t>(EventAt(tape, c, p).arrival_micros) * 1000;
}

/// Scores and stamps every buffered RESULT.
void Absorb(const Tape& tape, ClientState* c, std::vector<StreamResult> got,
            bool timed) {
  const int64_t now = NowNs();
  const size_t n = tape.scenario.batches.size();
  for (const StreamResult& r : got) {
    const auto it = c->awaiting.find({r.stream_id, r.batch_index});
    if (it == c->awaiting.end()) continue;  // Not ours / already seen.
    if (timed) {
      c->results.Done(it->second, now);
      c->spans.Add("result", c->results.DueOf(it->second), now, r.stream_id,
                   r.batch_index);
    }
    c->awaiting.erase(it);
    const size_t base = static_cast<size_t>(r.batch_index) % n;
    const bool warm = static_cast<size_t>(r.batch_index) < n &&
                      base < tape.scenario.spec.warmup_batches;
    const auto& labels = tape.scenario.batches[base].labels;
    const auto& pred = r.report.predictions;
    if (!warm && pred.size() == labels.size()) {
      for (size_t i = 0; i < pred.size(); ++i) {
        c->correct_rows += pred[i] == labels[i] ? 1 : 0;
      }
      c->scored_rows += pred.size();
    }
    const size_t strategy = static_cast<size_t>(r.report.strategy);
    if (strategy < 3) ++c->mech[strategy];
    const size_t pattern = static_cast<size_t>(r.report.assessment.pattern);
    if (!r.report.assessment.warmup && pattern < 3) ++c->shift[pattern];
  }
}

/// Sends event `p` of client `c`; returns true on ACK.
bool SendOne(const Tape& tape, ClientState* c, uint64_t p, bool timed,
             int64_t due_ns, bool traced) {
  const freeway::ScenarioEvent& ev = EventAt(tape, *c, p);
  const Batch& base = ev.training ? tape.scenario.batches[ev.base_index]
                                  : tape.unlabeled[ev.base_index];
  c->scratch.features = base.features;
  c->scratch.labels = base.labels;
  c->scratch.index = BatchIndex(tape, *c, p);
  if (!ev.training) c->awaiting[{ev.stream_id, c->scratch.index}] = p;
  const int64_t sent = NowNs();
  if (timed) {
    c->acks.Due(p, due_ns);
    c->acks.Sent(p, sent);
    if (!ev.training) c->results.Due(p, due_ns);
  }
  Session& session = c->sessions.back();
  const freeway::Status st = session.client->Submit(ev.stream_id, c->scratch);
  const int64_t done = NowNs();
  ++session.submits;
  ++c->attempted;
  if (traced) {
    const int64_t root = c->spans.Open("request", timed ? due_ns : sent,
                                       ev.stream_id, c->scratch.index);
    if (timed) c->spans.Add("gen.wait", due_ns, sent, ev.stream_id, c->scratch.index, root);
    c->spans.Add("net.client.submit", sent, done, ev.stream_id, c->scratch.index, root);
    c->spans.Close(root, done);
  }
  if (!st.ok()) {
    ++c->failed;
    if (!ev.training) c->awaiting.erase({ev.stream_id, c->scratch.index});
    if (ev.training) {
      c->errors.push_back("labeled batch lost: " + st.ToString());
    }
    return false;
  }
  if (timed) {
    c->acks.Done(p, done);
    c->submit_us.push_back(static_cast<double>(done - sent) / 1e3);
  }
  if (ev.training) session.labeled_acked_seqs.push_back(session.submits);
  return true;
}

/// Waits until `due_ns`, absorbing RESULTs as they arrive.
void WaitUntil(const Tape& tape, ClientState* c, int64_t due_ns) {
  while (true) {
    const int64_t now = NowNs();
    const int64_t remaining = due_ns - now;
    if (remaining <= 0) return;
    if (remaining > 1'500'000) {
      auto got = c->live().PollResults((remaining - 500'000) / 1'000'000);
      if (got.ok()) Absorb(tape, c, *std::move(got), true);
    } else {
      if (c->live().PumpResults() > 0) Absorb(tape, c, c->live().TakeResults(), true);
      if (remaining > 100'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(remaining - 80'000));
      }
    }
  }
}

/// Paces this client's events from `start_ns` (its next event due then)
/// until `end_ns`.
void OpenLoop(const Tape& tape, ClientState* c, int64_t start_ns,
              int64_t end_ns, bool traced) {
  const int64_t base = DueNs(tape, *c, c->position, 0);
  for (;; ++c->position) {
    const int64_t due = start_ns + DueNs(tape, *c, c->position, 0) - base;
    if (due >= end_ns) break;
    WaitUntil(tape, c, due);
    SendOne(tape, c, c->position, true, due, traced);
    Absorb(tape, c, c->live().TakeResults(), true);
  }
}

void ClosedLoop(const Tape& tape, ClientState* c, int64_t end_ns, bool traced) {
  while (NowNs() < end_ns) {
    const uint64_t rows = tape.scenario.batches[EventAt(tape, *c, c->position).base_index].size();
    if (SendOne(tape, c, c->position, false, 0, traced)) c->closed_rows += rows;
    ++c->position;
    if (c->live().PumpResults() > 0) Absorb(tape, c, c->live().TakeResults(), false);
  }
}

/// Collects outstanding RESULTs; whatever is still missing at the deadline
/// counts as failed.
void Drain(const Tape& tape, ClientState* c, bool timed) {
  const int64_t deadline = NowNs() + kDrainDeadlineMs * 1'000'000;
  while (!c->awaiting.empty() && NowNs() < deadline) {
    auto got = c->live().PollResults(20);
    if (got.ok()) Absorb(tape, c, *std::move(got), timed);
  }
  c->failed += c->awaiting.size();
  if (!c->awaiting.empty()) {
    c->errors.push_back(std::to_string(c->awaiting.size()) +
                        " unlabeled batches without RESULT");
  }
  c->awaiting.clear();
}

template <typename Fn>
void OnEveryClient(std::vector<ClientState>& clients, Fn fn) {
  std::vector<std::thread> threads;
  for (ClientState& c : clients) threads.emplace_back([&fn, &c] { fn(&c); });
  for (auto& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// Set-up, recovery and the log checks.

/// Spawns the cluster and submits one labeled batch; returns spawn → first
/// ACK in seconds, or a negative value on failure.
double ColdStart(Cluster* cluster, const Tape& tape) {
  const int64_t t0 = NowNs();
  if (!cluster->SpawnAll()) return -1;
  StreamClient client(MakeClientOptions(*cluster, 1));
  const Batch& b = tape.scenario.batches.front();
  if (!client.Submit(tape.scenario.events.front().stream_id, b).ok()) return -1;
  return static_cast<double>(NowNs() - t0) / 1e9;
}

size_t LeaderOf(const Cluster& cluster, const StreamClient& client) {
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.port(i) == client.current_endpoint().port) return i;
  }
  return 0;
}

struct LogReplay {
  bool ok = false;
  std::string error;
  std::vector<freeway::IngestRecord> records;  ///< Batch payloads dropped.
  freeway::DedupIndex watermarks;
  uint64_t last_lsn = 0;
};

void ReadLog(const std::string& dir, LogReplay* out) {
  freeway::IngestLogOptions options;
  options.directory = dir;
  options.read_only = true;
  freeway::IngestLog log(options);
  freeway::Status s = log.Open(&out->watermarks);
  if (s.ok()) {
    s = log.Replay([&](const freeway::IngestRecord& r) {
      freeway::IngestRecord slim;
      slim.lsn = r.lsn;
      slim.client_id = r.client_id;
      slim.sequence = r.sequence;
      slim.stream_id = r.stream_id;
      slim.batch.index = r.batch.index;
      slim.batch.labels = r.batch.labels;
      out->records.push_back(std::move(slim));
      return freeway::Status::OK();
    });
  }
  out->last_lsn = log.last_lsn();
  out->ok = s.ok();
  if (!s.ok()) out->error = s.ToString();
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) break;
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

/// Metric snapshots of every node.
std::vector<MetricSample> ScrapeAll(const Cluster& cluster) {
  std::vector<MetricSample> out;
  for (size_t i = 0; i < cluster.size(); ++i) {
    out.push_back(ParsePrometheus(cluster.Get(i, "/metrics")));
  }
  return out;
}

}  // namespace

void RunServe(const RunArgs& args, size_t nodes, Report* report) {
  const std::string spec_name = nodes == 1 ? "serve_1node" : "serve_3node";
  auto spec = freeway::LoadScenarioSpecFile(args.spec_dir + "/" + spec_name + ".scn");
  if (!spec.ok()) {
    report->Fail("spec: " + spec.status().ToString());
    return;
  }
  spec->seed = args.seed;
  auto generated = freeway::GenerateScenario(*spec);
  if (!generated.ok()) {
    report->Fail("generate: " + generated.status().ToString());
    return;
  }
  Tape tape;
  tape.scenario = *std::move(generated);
  for (const Batch& b : tape.scenario.batches) {
    tape.unlabeled.push_back(freeway::UnlabeledCopy(b));
  }
  tape.cycle_ns = static_cast<int64_t>(tape.scenario.duration_micros) * 1000 +
                  static_cast<int64_t>(1e9 / spec->arrival.rate);

  const std::string root = args.work_dir + "/" + spec_name + "-data";
  std::error_code ec;
  fs::remove_all(root, ec);

  // ---- Set-up: cold starts; the last one stays up for measurement. ------
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (cluster) cluster->StopAll();
    cluster.reset();
    fs::remove_all(root, ec);
    fs::create_directories(root, ec);
    cluster = std::make_unique<Cluster>(args, nodes, root, spec->dim, spec->classes);
    const double s = ColdStart(cluster.get(), tape);
    if (s < 0) {
      report->Fail("cold start " + std::to_string(i) + " never reached its first ACK");
      return;
    }
    setup_s.push_back(s);
  }

  // ---- Clients: streams partitioned by tenant, one thread each. --------
  std::set<uint64_t> stream_set;
  for (const auto& ev : tape.scenario.events) stream_set.insert(ev.stream_id);
  const std::vector<uint64_t> streams(stream_set.begin(), stream_set.end());
  const size_t nclients = std::max<size_t>(
      1, std::min<size_t>(kMaxClients, std::thread::hardware_concurrency()));
  std::vector<ClientState> clients(nclients);
  std::map<uint64_t, size_t> owner;
  for (size_t i = 0; i < streams.size(); ++i) owner[streams[i]] = i % nclients;
  std::vector<uint32_t> client_tenant(nclients, 0);
  for (size_t e = 0; e < tape.scenario.events.size(); ++e) {
    const auto& ev = tape.scenario.events[e];
    clients[owner[ev.stream_id]].mine.push_back(e);
    client_tenant[owner[ev.stream_id]] = ev.tenant_id;
  }
  // Fresh connections for every segment, each dialing the last known
  // leader first.
  uint16_t leader_port = cluster->port(0);
  auto open_session = [&](ClientState* c) {
    if (!c->sessions.empty()) c->live().Disconnect();
    Session session;
    session.client = std::make_unique<StreamClient>(
        MakeClientOptions(*cluster, c->tenant, leader_port));
    c->sessions.push_back(std::move(session));
  };
  for (size_t i = 0; i < nclients; ++i) {
    clients[i].tenant = client_tenant[i];
    open_session(&clients[i]);
    clients[i].spans = SpanBuffer(args.trace);
    if (clients[i].mine.empty()) {
      report->Fail("client without streams");
      return;
    }
  }

  const auto before = ScrapeAll(*cluster);
  // Traced runs sample every node's apply backlog through the steady
  // phases.
  std::atomic<bool> sampling{args.trace};
  double lag_max = 0;
  std::thread sampler([&] {
    while (sampling.load()) {
      for (const MetricSample& m : ScrapeAll(*cluster)) {
        const auto it = m.find("freeway_raft_apply_lag");
        if (it != m.end()) lag_max = std::max(lag_max, it->second);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  double cpu0 = SelfCpuSeconds();
  for (size_t i = 0; i < nodes; ++i) cpu0 += ProcessCpuSeconds(cluster->pid(i));
  const int64_t wall0 = NowNs();

  // Both phases run in segments. Every segment opens fresh connections and
  // drains its RESULTs before the next starts, so one run samples
  // kSegments x clients independent connections.
  auto next_segment = [&](size_t segment) {
    if (segment == 0) return;
    leader_port = clients[0].live().current_endpoint().port;
    for (ClientState& c : clients) open_session(&c);
  };

  // ---- Phase 1: open loop. ----------------------------------------------
  // The open loop gets most of the budget: its RESULT count (half its
  // submits) must support a p99, and its tail is set by rare clusters of
  // stalls.
  const double open_s = args.seconds * 0.7;
  const int64_t open_segment_ns = static_cast<int64_t>(open_s * 1e9 / kSegments);
  for (size_t segment = 0; segment < kSegments; ++segment) {
    next_segment(segment);
    const int64_t start = NowNs() + 5'000'000;
    OnEveryClient(clients, [&](ClientState* c) {
      OpenLoop(tape, c, start, start + open_segment_ns, args.trace);
      Drain(tape, c, true);
    });
  }

  // ---- Phase 2: closed loop. --------------------------------------------
  // records_per_s is the median of the segments' throughputs. With tracing
  // on, odd segments record spans and even ones do not, so the run
  // measures its own tracing overhead.
  const double closed_s = args.seconds - open_s;
  const int64_t closed_segment_ns = static_cast<int64_t>(closed_s * 1e9 / kSegments);
  std::vector<double> segment_rps, plain_rps, traced_rps;
  double closed_wall = 0;
  for (size_t segment = 0; segment < kSegments; ++segment) {
    next_segment(kSegments + segment);
    uint64_t rows0 = 0;
    for (const ClientState& c : clients) rows0 += c.closed_rows;
    const int64_t start = NowNs();
    const bool traced = args.trace && segment % 2 == 1;
    OnEveryClient(clients, [&](ClientState* c) {
      ClosedLoop(tape, c, start + closed_segment_ns, traced);
    });
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    uint64_t rows1 = 0;
    for (const ClientState& c : clients) rows1 += c.closed_rows;
    segment_rps.push_back(static_cast<double>(rows1 - rows0) / seconds);
    (traced ? traced_rps : plain_rps).push_back(segment_rps.back());
    closed_wall += seconds;
    OnEveryClient(clients, [&](ClientState* c) { Drain(tape, c, false); });
  }

  double cpu1 = SelfCpuSeconds();
  for (size_t i = 0; i < nodes; ++i) cpu1 += ProcessCpuSeconds(cluster->pid(i));
  const double wall = static_cast<double>(NowNs() - wall0) / 1e9;
  sampling = false;
  sampler.join();
  const auto after = ScrapeAll(*cluster);
  const size_t lead = LeaderOf(*cluster, clients[0].live());
  std::vector<std::string> stats_json;
  for (size_t i = 0; i < nodes; ++i) stats_json.push_back(cluster->Get(i, "/stats"));
  double peak_rss = 0;
  for (size_t i = 0; i < nodes; ++i) {
    peak_rss = std::max(peak_rss, PeakRssMb(cluster->pid(i)));
  }

  // ---- Phase 3: recovery rounds on client 0 (labeled writes only). -----
  std::vector<double> recovery_ms;
  ClientState& c0 = clients[0];
  for (int round = 0; round < RecoveryRounds(nodes); ++round) {
    // Find the current leader through an ACK, then take it down.
    while (!tape.scenario.events[c0.mine[c0.position % c0.mine.size()]].training) {
      ++c0.position;
    }
    if (!SendOne(tape, &c0, c0.position++, false, 0, false)) break;
    const size_t victim = LeaderOf(*cluster, c0.live());
    const int64_t t0 = NowNs();
    cluster->Kill(victim, SIGKILL);
    if (nodes == 1 && !cluster->Spawn(victim)) {
      report->Fail("restart failed");
      break;
    }
    while (!tape.scenario.events[c0.mine[c0.position % c0.mine.size()]].training) {
      ++c0.position;
    }
    if (!SendOne(tape, &c0, c0.position++, false, 0, false)) break;
    recovery_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (nodes > 1) {
      // Bring the killed node back and let it catch up before the next
      // round, so every round starts from a full group.
      if (!cluster->Spawn(victim)) {
        report->Fail("restart failed");
        break;
      }
      const int64_t catch_up = NowNs() + 2'000'000'000;
      while (NowNs() < catch_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto rejoined = ParsePrometheus(cluster->Get(victim, "/metrics"));
        const auto leader = ParsePrometheus(
            cluster->Get(LeaderOf(*cluster, c0.live()), "/metrics"));
        const auto applied = rejoined.find("freeway_raft_applied_index");
        const auto committed = leader.find("freeway_raft_commit_index");
        if (applied != rejoined.end() && committed != leader.end() &&
            applied->second >= committed->second) {
          break;
        }
      }
    }
  }
  if (static_cast<int>(recovery_ms.size()) != RecoveryRounds(nodes)) {
    report->Fail("recovery rounds incomplete");
  }

  // ---- Quiesce, check the runtime invariant, stop, replay the logs. -----
  for (size_t i = 0; i < nodes; ++i) {
    std::string json;
    for (int spin = 0; spin < 100; ++spin) {
      json = cluster->Get(i, "/stats");
      if (StatsTotal(json, "in_flight") == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const double enq = StatsTotal(json, "enqueued");
    const double rhs = StatsTotal(json, "processed") + StatsTotal(json, "shed") +
                       StatsTotal(json, "quarantined") +
                       StatsTotal(json, "undrained") + StatsTotal(json, "in_flight");
    ++report->attempted;
    if (enq < 0 || enq != rhs || StatsTotal(json, "in_flight") != 0) {
      ++report->failed;
      report->Fail("node " + std::to_string(i) +
                   ": enqueued != processed + shed + quarantined + undrained + "
                   "in_flight, or work left in flight");
    }
  }
  cluster->StopAll();

  uint64_t stale = 0, resends = 0;
  for (ClientState& c : clients) {
    for (const Session& session : c.sessions) {
      stale += session.client->tallies().stale_acks;
      resends += session.client->tallies().resends;
    }
    report->attempted += c.attempted;
    report->failed += c.failed;
    for (const auto& e : c.errors) report->Fail(e);
  }
  if (stale != 0) report->Fail("stale ACKs: " + std::to_string(stale));

  std::vector<LogReplay> logs(nodes);
  double disk_per_batch = 0;
  for (size_t i = 0; i < nodes; ++i) {
    ReadLog(NodeDir(root, i) + "/log", &logs[i]);
    ++report->attempted;
    if (!logs[i].ok) {
      ++report->failed;
      report->Fail("node " + std::to_string(i) + " log replay: " + logs[i].error);
      continue;
    }
    const uint64_t bytes = DirBytes(NodeDir(root, i) + "/log") +
                           DirBytes(NodeDir(root, i) + "/raft");
    if (logs[i].last_lsn > 0) {
      disk_per_batch += static_cast<double>(bytes) /
                        static_cast<double>(logs[i].last_lsn) /
                        static_cast<double>(nodes);
    }
    // Every ACKed labeled batch of every client appears exactly once in
    // the retained suffix of the log, and the rebuilt watermark is the
    // client's last sequence. Truncation may have pruned a prefix.
    for (const ClientState& c : clients) {
      for (const Session& session : c.sessions) {
      const uint64_t id = session.client->client_id();
      std::vector<uint64_t> seqs;
      for (const auto& r : logs[i].records) {
        if (r.client_id == id) seqs.push_back(r.sequence);
      }
      const std::set<uint64_t> unique(seqs.begin(), seqs.end());
      bool ok = unique.size() == seqs.size() &&
                logs[i].watermarks.Watermark(id) == session.submits;
      const uint64_t first = seqs.empty() ? session.submits + 1 : *unique.begin();
      for (uint64_t s : session.labeled_acked_seqs) {
        if (s >= first && unique.count(s) != 1) ok = false;
      }
      if (!ok) {
        report->Fail("node " + std::to_string(i) + " log does not hold client " +
                     std::to_string(id) + "'s ACKed labeled batches exactly once");
      }
      }
    }
  }
  if (nodes > 1) {
    // Survivors' logs agree record for record wherever they overlap.
    for (size_t i = 1; i < nodes; ++i) {
      std::map<uint64_t, const freeway::IngestRecord*> by_lsn;
      for (const auto& r : logs[0].records) by_lsn[r.lsn] = &r;
      size_t overlap = 0;
      bool same = logs[i].last_lsn == logs[0].last_lsn;
      for (const auto& r : logs[i].records) {
        const auto it = by_lsn.find(r.lsn);
        if (it == by_lsn.end()) continue;
        ++overlap;
        const auto& o = *it->second;
        same = same && o.client_id == r.client_id && o.sequence == r.sequence &&
               o.stream_id == r.stream_id && o.batch.index == r.batch.index &&
               o.batch.labels == r.batch.labels;
      }
      if (!same || overlap == 0) {
        report->Fail("node " + std::to_string(i) + " log diverges from node 0");
      }
    }
  }

  // ---- End-to-end metrics. ----------------------------------------------
  std::vector<double> ack_us, result_us, lag_us, submit_us;
  uint64_t correct = 0, scored = 0;
  uint64_t mech[3] = {0, 0, 0}, shift[3] = {0, 0, 0};
  for (ClientState& c : clients) {
    const auto a = c.acks.LatenciesMicros();
    const auto r = c.results.LatenciesMicros();
    const auto l = c.acks.LagsMicros();
    ack_us.insert(ack_us.end(), a.begin(), a.end());
    result_us.insert(result_us.end(), r.begin(), r.end());
    lag_us.insert(lag_us.end(), l.begin(), l.end());
    submit_us.insert(submit_us.end(), c.submit_us.begin(), c.submit_us.end());
    correct += c.correct_rows;
    scored += c.scored_rows;
    for (int k = 0; k < 3; ++k) {
      mech[k] += c.mech[k];
      shift[k] += c.shift[k];
    }
  }
  // Shed batches and pipeline errors on any node are failed operations.
  for (size_t i = 0; i < nodes; ++i) {
    const double shed = std::max(0.0, StatsTotal(stats_json[i], "shed"));
    const double errors = std::max(0.0, StatsTotal(stats_json[i], "errors"));
    report->failed += static_cast<uint64_t>(shed + errors);
  }

  report->E2e("setup_s", Median(setup_s), "s", setup_s.size());
  report->E2e("records_per_s", Median(segment_rps), "1/s", segment_rps.size());
  report->E2e("read_p50_us", CheckedPercentile(report, "result", result_us, 0.5), "us", result_us.size());
  report->E2e("read_p95_us", CheckedPercentile(report, "result", result_us, 0.95), "us", result_us.size());
  report->E2e("write_p95_us", CheckedPercentile(report, "ack", ack_us, 0.95), "us", ack_us.size());
  report->E2e("accuracy", scored ? static_cast<double>(correct) / static_cast<double>(scored) : 0.0,
              "ratio", scored);
  report->E2e("ok_frac",
              report->attempted ? 1.0 - static_cast<double>(report->failed) /
                                            static_cast<double>(report->attempted)
                                : 0.0,
              "ratio");
  report->E2e("peak_rss_mb", peak_rss, "MB");

  report->Detail("result_p50_us", report->end_to_end[2].value, "us", result_us.size());
  report->Detail("result_p99_us", CheckedPercentile(report, "result", result_us, 0.99), "us", result_us.size());
  report->Detail("ack_p50_us", CheckedPercentile(report, "ack", ack_us, 0.5), "us", ack_us.size());
  report->Detail("ack_p99_us", CheckedPercentile(report, "ack", ack_us, 0.99), "us", ack_us.size());
  report->Detail(nodes == 1 ? "restart_ms" : "failover_ms", Median(recovery_ms), "ms",
                 recovery_ms.size());
  report->Detail("open_loop_submits_per_s",
                 static_cast<double>(ack_us.size()) / open_s, "1/s", ack_us.size());
  report->Detail("closed_loop_seconds", closed_wall, "s");

  report->context.effective_parallelism = wall > 0 ? (cpu1 - cpu0) / wall : 0.0;

  if (!args.trace) return;

  // ---- Per-layer metrics (traced run). -----------------------------------
  // The leader of the steady phases did the admission work.
  const MetricSample d = Delta(before[lead], after[lead]);
  auto hist = [&](const char* family, const std::string& labels = "") {
    return ReadHistogram(d, family, labels);
  };
  auto sum_nodes = [&](const char* family) {
    double total = 0;
    for (size_t i = 0; i < nodes; ++i) total += SumFamily(Delta(before[i], after[i]), family);
    return total;
  };
  report->Layer("net.client.submit_us.p50", Percentile(submit_us, 0.5).value_or(0), "us", submit_us.size());
  report->Layer("net.client.submit_us.p99", Percentile(submit_us, 0.99).value_or(0), "us", submit_us.size());
  const auto req = hist("freeway_net_request_seconds");
  report->Layer("net.server.request_us.p50", req.Quantile(0.5) * 1e6, "us", static_cast<size_t>(req.count));
  report->Layer("net.server.request_us.p99", req.Quantile(0.99) * 1e6, "us", static_cast<size_t>(req.count));
  {
    // The wire codec on this workload's own batches.
    std::vector<double> enc_us, dec_us;
    for (size_t i = 0; i < 2000; ++i) {
      freeway::SubmitMessage m;
      const Batch& b = tape.scenario.batches[i % tape.scenario.batches.size()];
      m.stream_id = 1;
      m.client_id = 7;
      m.sequence = i + 1;
      m.batch = b;
      const int64_t t0 = NowNs();
      const std::vector<char> bytes = freeway::EncodeSubmit(m);
      const int64_t t1 = NowNs();
      freeway::FrameDecoder decoder;
      decoder.Feed(bytes.data(), bytes.size());
      auto frame = decoder.Next();
      bool ok = frame.ok();
      if (ok) ok = freeway::DecodeSubmit(*frame).ok();
      const int64_t t2 = NowNs();
      if (!ok) report->Fail("wire round trip failed");
      enc_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      dec_us.push_back(static_cast<double>(t2 - t1) / 1e3);
    }
    report->Layer("net.wire.encode_us", Median(enc_us), "us", enc_us.size());
    report->Layer("net.wire.decode_us", Median(dec_us), "us", dec_us.size());
  }
  const double frames = SumFamily(d, "freeway_net_worker_frames_total");
  const double loops = SumFamily(d, "freeway_net_worker_loop_iterations_total");
  report->Layer("net.frames_per_wakeup", loops > 0 ? frames / loops : 0, "ratio");
  report->Layer("net.overloads", sum_nodes("freeway_net_overloads_total"), "count");
  report->Layer("net.client.resends", static_cast<double>(resends), "count");
  report->Layer("net.duplicates", sum_nodes("freeway_net_duplicates_total"), "count");

  const auto append = hist("freeway_ingest_append_seconds");
  const auto append_bytes = hist("freeway_ingest_append_bytes");
  report->Layer("ingest.append_us.p50", append.Quantile(0.5) * 1e6, "us", static_cast<size_t>(append.count));
  report->Layer("ingest.append_us.p99", append.Quantile(0.99) * 1e6, "us", static_cast<size_t>(append.count));
  report->Layer("ingest.bytes_per_batch", append_bytes.Mean(), "bytes", static_cast<size_t>(append_bytes.count));
  const double appends = SumFamily(d, "freeway_ingest_appends_total");
  report->Layer("ingest.reverts_per_append",
                appends > 0 ? SumFamily(d, "freeway_ingest_reverts_total") / appends : 0, "ratio");
  report->Layer("ingest.segments_pruned", sum_nodes("freeway_ingest_segments_pruned_total"), "count");

  const auto commit = hist("freeway_raft_commit_seconds");
  const auto raft_append = hist("freeway_raft_append_seconds");
  report->Layer("replication.commit_us.p50", commit.Quantile(0.5) * 1e6, "us", static_cast<size_t>(commit.count));
  report->Layer("replication.commit_us.p99", commit.Quantile(0.99) * 1e6, "us", static_cast<size_t>(commit.count));
  report->Layer("replication.append_us", raft_append.Mean() * 1e6, "us", static_cast<size_t>(raft_append.count));
  report->Layer("replication.apply_lag_max", lag_max, "count");
  const double proposals = SumFamily(d, "freeway_raft_proposals_total");
  report->Layer("replication.messages_per_entry",
                proposals > 0 ? sum_nodes("freeway_raft_messages_total{dir=\"out\"}") / proposals : 0,
                "ratio");
  report->Layer("replication.elections", sum_nodes("freeway_raft_elections_total"), "count");
  report->Layer("replication.disk_bytes_per_batch", disk_per_batch, "bytes");
  report->Layer(nodes == 1 ? "fault.restart_ms" : "replication.failover_ms",
                Median(recovery_ms), "ms", recovery_ms.size());

  const auto qwait = hist("freeway_runtime_queue_wait_seconds");
  report->Layer("runtime.queue_wait_us.p50", qwait.Quantile(0.5) * 1e6, "us", static_cast<size_t>(qwait.count));
  report->Layer("runtime.queue_wait_us.p99", qwait.Quantile(0.99) * 1e6, "us", static_cast<size_t>(qwait.count));
  const auto push = hist("freeway_pipeline_push_seconds");
  report->Layer("runtime.push_us", push.Mean() * 1e6, "us", static_cast<size_t>(push.count));
  report->Layer("runtime.queue_high_water", StatsTotal(stats_json[lead], "queue_high_water"), "count");
  report->Layer("runtime.blocked_us", StatsTotal(stats_json[lead], "blocked_micros"), "us");
  report->Layer("runtime.shed", StatsTotal(stats_json[lead], "shed"), "count");
  report->Layer("runtime.rejected", StatsTotal(stats_json[lead], "rejected"), "count");

  const auto ckpt = hist("freeway_fault_checkpoint_write_seconds");
  const auto ckpt_bytes = hist("freeway_fault_checkpoint_bytes");
  report->Layer("fault.checkpoint_write_us", ckpt.Mean() * 1e6, "us", static_cast<size_t>(ckpt.count));
  report->Layer("fault.checkpoint_bytes", ckpt_bytes.Mean(), "bytes", static_cast<size_t>(ckpt_bytes.count));

  for (const char* stage : {"detect", "infer", "train"}) {
    const auto h = hist("freeway_learner_stage_seconds", std::string("stage=\"") + stage + "\"");
    report->Layer(std::string("core.") + stage + "_us", h.Mean() * 1e6, "us", static_cast<size_t>(h.count));
  }
  report->Layer("core.mech.multi_granularity", static_cast<double>(mech[0]), "count");
  report->Layer("core.mech.cec", static_cast<double>(mech[1]), "count");
  report->Layer("core.mech.knowledge_reuse", static_cast<double>(mech[2]), "count");
  report->Layer("core.shift.slight", static_cast<double>(shift[0]), "count");
  report->Layer("core.shift.sudden", static_cast<double>(shift[1]), "count");
  report->Layer("core.shift.reoccurring", static_cast<double>(shift[2]), "count");

  const auto pool_wait = hist("freeway_threadpool_task_wait_seconds");
  const auto pool_run = hist("freeway_threadpool_task_run_seconds");
  report->Layer("pool.task_wait_us", pool_wait.Mean() * 1e6, "us", static_cast<size_t>(pool_wait.count));
  report->Layer("pool.task_run_us", pool_run.Mean() * 1e6, "us", static_cast<size_t>(pool_run.count));
  report->Layer("pool.tasks", SumFamily(d, "freeway_threadpool_tasks_total"), "count");
  report->Layer("effective_parallelism", report->context.effective_parallelism, "ratio");

  report->Layer("gen.lag_p50_us", Percentile(lag_us, 0.5).value_or(0), "us", lag_us.size());
  report->Layer("gen.lag_p99_us", Percentile(lag_us, 0.99).value_or(0), "us", lag_us.size());
  report->Layer("gen.threads", static_cast<double>(nclients), "count");
  report->Layer("gen.connections", static_cast<double>(nclients), "count");

  const double plain = Median(plain_rps);
  report->Layer("trace.overhead_frac",
                plain > 0 ? (plain - Median(traced_rps)) / plain : 0, "ratio");

  std::vector<const SpanBuffer*> buffers;
  for (const ClientState& c : clients) buffers.push_back(&c.spans);
  std::map<std::string, SelfTime> self;
  for (const ClientState& c : clients) {
    for (const auto& [name, st] : SelfTimes(c.spans.spans())) {
      self[name].total_us += st.total_us;
      self[name].count += st.count;
    }
  }
  for (const auto& [name, st] : self) {
    report->Layer("self." + name + "_us", st.MeanUs(), "us", st.count);
  }
  const std::string trace_path = args.work_dir + "/trace-" + spec_name + ".json";
  if (!WriteChromeTrace(trace_path, buffers)) {
    report->Fail("cannot write " + trace_path);
  } else {
    std::printf("chrome trace: %s\n", trace_path.c_str());
  }
}

}  // namespace perfbench
