#include "io/tracefile.h"

#include <charconv>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "netbase/label.h"

namespace wormhole::io {

namespace {

using netbase::PacketKind;

char KindCode(PacketKind kind) {
  switch (kind) {
    case PacketKind::kTimeExceeded: return 'x';
    case PacketKind::kEchoReply: return 'e';
    case PacketKind::kDestinationUnreachable: return 'u';
    case PacketKind::kEchoRequest: break;
  }
  return '?';
}

/// The reader's one failure: a std::runtime_error naming the input line.
std::runtime_error Malformed(std::size_t line, const std::string& what) {
  return std::runtime_error("tracefile line " + std::to_string(line) + ": " +
                            what);
}

/// Splits one line into its whitespace-separated `tokens`.
void Tokenize(std::string_view text, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t pos = 0;
  while (true) {
    pos = text.find_first_not_of(" \t\r", pos);
    if (pos == std::string_view::npos) break;
    const std::size_t end = text.find_first_of(" \t\r", pos);
    tokens.push_back(text.substr(pos, end - pos));
    if (end == std::string_view::npos) break;
    pos = end;
  }
}

/// A number filling all of `token`, within [lo, hi].
template <typename T>
T ParseNumber(std::string_view token, T lo, T hi, std::size_t line,
              const char* what) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value);
  if (token.empty() || error != std::errc() || stop != end ||
      !(value >= lo && value <= hi)) {
    throw Malformed(line, std::string("bad ") + what + ": " +
                              std::string(token));
  }
  return value;
}

int ParseTtl(std::string_view token, std::size_t line, const char* what) {
  return ParseNumber<int>(token, 0, 255, line, what);
}

netbase::Ipv4Address ParseAddress(std::string_view token, std::size_t line) {
  const auto address = netbase::Ipv4Address::Parse(token);
  if (!address) throw Malformed(line, "bad address: " + std::string(token));
  return *address;
}

PacketKind ParseKind(std::string_view token, std::size_t line) {
  if (token == "x") return PacketKind::kTimeExceeded;
  if (token == "e") return PacketKind::kEchoReply;
  if (token == "u") return PacketKind::kDestinationUnreachable;
  throw Malformed(line, "bad reply kind code: " + std::string(token));
}

/// `L<label>:<ttl>`, the label within the 20-bit space.
netbase::LabelStackEntry ParseLabel(std::string_view token,
                                    std::size_t line) {
  const std::size_t colon = token.find(':');
  if (!token.starts_with('L') || colon == std::string_view::npos) {
    throw Malformed(line, "bad label field: " + std::string(token));
  }
  netbase::LabelStackEntry lse;
  lse.label = ParseNumber<std::uint32_t>(token.substr(1, colon - 1), 0,
                                         netbase::kMaxLabel, line, "label");
  lse.ttl = static_cast<std::uint8_t>(
      ParseTtl(token.substr(colon + 1), line, "label TTL"));
  return lse;
}

}  // namespace

void WriteTrace(std::ostream& os, const probe::TraceResult& trace) {
  os << "T " << trace.source << ' ' << trace.target << ' ' << trace.flow_id
     << ' ' << (trace.reached ? 1 : 0) << ' ' << (trace.unreachable ? 1 : 0)
     << '\n';
  for (const probe::Hop& hop : trace.hops) {
    os << "H " << hop.probe_ttl << ' ';
    if (hop.address) {
      os << *hop.address << ' ' << KindCode(hop.reply_kind) << ' '
         << hop.reply_ip_ttl << ' ' << std::fixed << std::setprecision(3)
         << hop.rtt_ms;
      for (const auto& lse : hop.labels) {
        os << " L" << lse.label << ':' << static_cast<int>(lse.ttl);
      }
    } else {
      os << '*';
    }
    os << '\n';
  }
  os << ".\n";
}

void WriteTraces(std::ostream& os,
                 const std::vector<probe::TraceResult>& traces) {
  os << "# wormhole tracefile v1, " << traces.size() << " traces\n";
  for (const probe::TraceResult& trace : traces) WriteTrace(os, trace);
}

std::vector<probe::TraceResult> ReadTraces(std::istream& is) {
  std::vector<probe::TraceResult> traces;
  probe::TraceResult current;
  bool in_trace = false;
  std::string text;
  std::vector<std::string_view> tokens;
  std::size_t line = 0;

  while (std::getline(is, text)) {
    ++line;
    if (text.empty() || text[0] == '#') continue;
    Tokenize(text, tokens);
    if (tokens.empty()) continue;
    const std::string_view tag = tokens[0];

    if (tag == "T") {
      if (in_trace) throw Malformed(line, "nested trace record");
      if (tokens.size() != 6) {
        throw Malformed(line, "expected T <src> <dst> <flow> <0|1> <0|1>");
      }
      current = probe::TraceResult{};
      current.source = ParseAddress(tokens[1], line);
      current.target = ParseAddress(tokens[2], line);
      current.flow_id = ParseNumber<std::uint16_t>(
          tokens[3], 0, 0xFFFF, line, "flow id");
      current.reached = ParseNumber<int>(tokens[4], 0, 1, line, "flag") != 0;
      current.unreachable =
          ParseNumber<int>(tokens[5], 0, 1, line, "flag") != 0;
      in_trace = true;
    } else if (tag == "H") {
      if (!in_trace) throw Malformed(line, "H record outside trace");
      if (tokens.size() < 3) throw Malformed(line, "H record too short");
      probe::Hop hop;
      hop.probe_ttl = ParseTtl(tokens[1], line, "probe TTL");
      if (tokens[2] == "*") {
        if (tokens.size() != 3) {
          throw Malformed(line, "fields after a timeout hop");
        }
      } else {
        if (tokens.size() < 6) throw Malformed(line, "H record too short");
        hop.address = ParseAddress(tokens[2], line);
        hop.reply_kind = ParseKind(tokens[3], line);
        hop.reply_ip_ttl = ParseTtl(tokens[4], line, "reply TTL");
        hop.rtt_ms = ParseNumber<double>(
            tokens[5], 0.0, std::numeric_limits<double>::max(), line, "RTT");
        for (std::size_t i = 6; i < tokens.size(); ++i) {
          hop.labels.push_back(ParseLabel(tokens[i], line));
        }
      }
      current.hops.push_back(std::move(hop));
    } else if (tag == ".") {
      if (!in_trace) throw Malformed(line, "stray trace terminator");
      if (tokens.size() != 1) {
        throw Malformed(line, "fields after a trace terminator");
      }
      traces.push_back(std::move(current));
      in_trace = false;
    } else {
      throw Malformed(line, "unknown record tag: " + std::string(tag));
    }
  }
  if (in_trace) throw Malformed(line, "unterminated trace record");
  return traces;
}

}  // namespace wormhole::io
