#include "src/core/cli.hpp"

#include <cstdlib>
#include <sstream>

namespace burst {

namespace {

bool parse_transport(const std::string& v, Transport* out) {
  if (v == "udp") *out = Transport::kUdp;
  else if (v == "tahoe") *out = Transport::kTahoe;
  else if (v == "reno") *out = Transport::kReno;
  else if (v == "newreno") *out = Transport::kNewReno;
  else if (v == "vegas") *out = Transport::kVegas;
  else if (v == "sack") *out = Transport::kSack;
  else return false;
  return true;
}

bool parse_queue(const std::string& v, GatewayQueue* out) {
  if (v == "fifo" || v == "droptail") *out = GatewayQueue::kDropTail;
  else if (v == "red") *out = GatewayQueue::kRed;
  else if (v == "drr") *out = GatewayQueue::kDrr;
  else return false;
  return true;
}

bool parse_double(const std::string& v, double* out) {
  char* end = nullptr;
  *out = std::strtod(v.c_str(), &end);
  return end != v.c_str() && *end == '\0';
}

bool parse_int(const std::string& v, int* out) {
  char* end = nullptr;
  const long parsed = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') return false;
  *out = static_cast<int>(parsed);
  return true;
}

bool fail(CliError* error, const std::string& msg) {
  if (error) error->message = msg;
  return false;
}

bool apply_option(const std::string& key, const std::string& value,
                  bool has_value, CliRequest* req, CliError* error) {
  auto need = [&](const char* what) {
    return has_value ? true
                     : fail(error, "--" + key + " requires a value (" +
                                       std::string(what) + ")");
  };
  Scenario& sc = req->scenario;
  if (key == "help") {
    req->show_help = true;
    return true;
  }
  if (key == "delack") {
    sc.delayed_ack = true;
    return true;
  }
  if (key == "ecn") {
    sc.ecn = true;
    return true;
  }
  if (key == "adaptive-red") {
    sc.adaptive_red = true;
    return true;
  }
  if (key == "limited-transmit") {
    sc.limited_transmit = true;
    return true;
  }
  if (key == "cwnd-validation") {
    sc.cwnd_validation = true;
    return true;
  }
  if (key == "transport") {
    if (!need("protocol name")) return false;
    if (!parse_transport(value, &sc.transport)) {
      return fail(error, "unknown transport '" + value + "'");
    }
    return true;
  }
  if (key == "queue") {
    if (!need("fifo|red|drr")) return false;
    if (!parse_queue(value, &sc.gateway)) {
      return fail(error, "unknown queue discipline '" + value + "'");
    }
    return true;
  }
  if (key == "clients") {
    int n = 0;
    if (!need("count") || !parse_int(value, &n) || n < 1) {
      return fail(error, "--clients needs a positive integer");
    }
    sc.num_clients = n;
    return true;
  }
  if (key == "seed") {
    int n = 0;
    if (!need("seed") || !parse_int(value, &n) || n < 0) {
      return fail(error, "--seed needs a non-negative integer");
    }
    sc.seed = static_cast<std::uint64_t>(n);
    return true;
  }
  if (key == "buffer") {
    int n = 0;
    if (!need("packets") || !parse_int(value, &n) || n < 1) {
      return fail(error, "--buffer needs a positive integer");
    }
    sc.gateway_buffer = static_cast<std::size_t>(n);
    return true;
  }
  double d = 0.0;
  auto need_pos_double = [&](const char* what) {
    if (!need(what)) return false;
    if (!parse_double(value, &d) || d <= 0.0) {
      return fail(error, "--" + key + " needs a positive number");
    }
    return true;
  };
  if (key == "duration") {
    if (!need_pos_double("seconds")) return false;
    sc.duration = d;
    return true;
  }
  if (key == "bottleneck-mbps") {
    if (!need_pos_double("Mbps")) return false;
    sc.bottleneck_bw_bps = d * 1e6;
    return true;
  }
  if (key == "mean-interarrival") {
    if (!need_pos_double("seconds")) return false;
    sc.mean_interarrival = d;
    return true;
  }
  if (key == "red-min") {
    if (!need_pos_double("packets")) return false;
    sc.red_min_th = d;
    return true;
  }
  if (key == "red-max") {
    if (!need_pos_double("packets")) return false;
    sc.red_max_th = d;
    return true;
  }
  if (key == "red-maxp") {
    if (!need_pos_double("probability")) return false;
    sc.red_max_p = d;
    return true;
  }
  if (key == "trace") {
    if (!need("client indices")) return false;
    std::istringstream is(value);
    std::string tok;
    while (std::getline(is, tok, ',')) {
      int idx = 0;
      if (!parse_int(tok, &idx) || idx < 0) {
        return fail(error, "--trace needs comma-separated indices");
      }
      req->options.trace_clients.push_back(idx);
    }
    req->options.cwnd_sample_period = 0.1;
    return true;
  }
  if (key == "lp") {
    int n = 0;
    if (!need("shard count") || !parse_int(value, &n) || n < 1) {
      return fail(error, "--lp needs a positive integer");
    }
    req->options.lp_shards = n;
    return true;
  }
  if (key == "csv") {
    if (!need("path")) return false;
    req->csv_path = value;
    return true;
  }
  if (key == "trace-out") {
    if (!need("path stem")) return false;
    req->trace_path = value;
    return true;
  }
  if (key == "fr-out") {
    if (!need("path stem")) return false;
    req->fr_path = value;
    return true;
  }
  if (key == "fr-period") {
    double p = 0.0;
    if (!need("seconds") || !parse_double(value, &p) || !(p > 0.0)) {
      return fail(error, "--fr-period needs a positive number of seconds");
    }
    req->fr_period = p;
    return true;
  }
  if (key == "fr-cap") {
    int n = 0;
    if (!need("samples") || !parse_int(value, &n) || n < 2) {
      return fail(error, "--fr-cap needs an integer sample budget >= 2");
    }
    req->fr_cap = n;
    return true;
  }
  if (key == "profile") {
    req->profile = true;
    return true;
  }
  return fail(error, "unknown option --" + key);
}

}  // namespace

std::optional<CliRequest> parse_cli(const std::vector<std::string>& args,
                                    CliError* error) {
  CliRequest req;
  req.scenario = Scenario::paper_default();
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) != 0) {
      if (error) error->message = "unexpected argument '" + arg + "'";
      return std::nullopt;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string key = body.substr(0, eq);
    const bool has_value = eq != std::string::npos;
    const std::string value = has_value ? body.substr(eq + 1) : "";
    if (!apply_option(key, value, has_value, &req, error)) {
      return std::nullopt;
    }
  }
  // Sanity constraints that individual options cannot see alone.
  if (req.scenario.red_min_th >= req.scenario.red_max_th) {
    if (error) error->message = "--red-min must be below --red-max";
    return std::nullopt;
  }
  for (int idx : req.options.trace_clients) {
    if (idx >= req.scenario.num_clients) {
      if (error) {
        error->message = "--trace index " + std::to_string(idx) +
                         " out of range for --clients=" +
                         std::to_string(req.scenario.num_clients);
      }
      return std::nullopt;
    }
  }
  return req;
}

std::string cli_usage() {
  return
      "burstsim — run one dumbbell experiment from the ICDCS 2000 TCP\n"
      "burstiness study and print its metrics.\n\n"
      "usage: burstsim [--option[=value]]...\n\n"
      "  --transport=udp|tahoe|reno|newreno|vegas|sack   (default reno)\n"
      "  --queue=fifo|red|drr                            (default fifo)\n"
      "  --clients=N            number of Poisson clients (default 20)\n"
      "  --duration=SECONDS     simulated time            (default 20)\n"
      "  --seed=N               RNG seed                  (default 1)\n"
      "  --buffer=PKTS          gateway buffer B          (default 50)\n"
      "  --bottleneck-mbps=X    bottleneck bandwidth      (default 32)\n"
      "  --mean-interarrival=S  per-client packet spacing (default 0.01)\n"
      "  --delack               delayed ACKs at the sink\n"
      "  --ecn                  ECN marking (with --queue=red)\n"
      "  --adaptive-red         self-configuring RED max_p\n"
      "  --limited-transmit     RFC 3042 limited transmit\n"
      "  --cwnd-validation      RFC 2861-style growth gating\n"
      "  --red-min=X --red-max=X --red-maxp=X   RED parameters\n"
      "  --lp=N                 logical processes for the conservative\n"
      "                         parallel engine (default 1 = sequential)\n"
      "  --trace=i,j,...        record cwnd of these clients\n"
      "  --csv=PATH             write traced cwnds as CSV\n"
      "  --trace-out=PATH       structured event trace: writes PATH.jsonl\n"
      "                         and PATH.perfetto.json (open in Perfetto);\n"
      "                         with --lp>1 each LP records its own ring,\n"
      "                         merged byte-identically to the lp=1 files,\n"
      "                         plus PATH.runtime.perfetto.json (per-LP\n"
      "                         barrier/run timeline)\n"
      "  --fr-out=PATH          flight recorder (huge-N sampler): writes\n"
      "                         PATH.csv and PATH.jsonl\n"
      "  --fr-period=S          flight-recorder cadence   (default 0.1)\n"
      "  --fr-cap=N             flight-recorder sample budget (default 4096)\n"
      "  --profile              per-LP phase table (windows=0 when lp=1)\n"
      "  --help                 this text\n";
}

}  // namespace burst
