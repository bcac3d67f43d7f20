// Trace persistence round-trips.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "gen/gns3.h"
#include "io/tracefile.h"
#include "probe/prober.h"

namespace wormhole::io {
namespace {

TEST(Tracefile, RoundTripsRealTraces) {
  gen::Gns3Testbed testbed({.scenario = gen::Gns3Scenario::kDefault});
  probe::Prober prober(testbed.engine(), testbed.vantage_point());
  std::vector<probe::TraceResult> traces;
  traces.push_back(prober.Traceroute(testbed.Address("CE2.left")));
  traces.push_back(prober.Traceroute(testbed.Address("P2.left")));
  traces.push_back(
      prober.Traceroute(testbed.Address("PE2.left"), {.flow_id = 9}));

  std::stringstream ss;
  WriteTraces(ss, traces);
  const auto back = ReadTraces(ss);

  ASSERT_EQ(back.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& a = traces[i];
    const auto& b = back[i];
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.flow_id, b.flow_id);
    EXPECT_EQ(a.reached, b.reached);
    EXPECT_EQ(a.unreachable, b.unreachable);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].probe_ttl, b.hops[h].probe_ttl);
      EXPECT_EQ(a.hops[h].address, b.hops[h].address);
      EXPECT_EQ(a.hops[h].reply_kind, b.hops[h].reply_kind);
      EXPECT_EQ(a.hops[h].reply_ip_ttl, b.hops[h].reply_ip_ttl);
      EXPECT_EQ(a.hops[h].labels, b.hops[h].labels);
      EXPECT_NEAR(a.hops[h].rtt_ms, b.hops[h].rtt_ms, 1e-3);
    }
  }
}

TEST(Tracefile, RoundTripsTimeoutsAndLabels) {
  probe::TraceResult trace;
  trace.source = netbase::Ipv4Address(5, 0, 0, 1);
  trace.target = netbase::Ipv4Address(5, 1, 0, 1);
  trace.flow_id = 17;
  probe::Hop silent;
  silent.probe_ttl = 1;
  trace.hops.push_back(silent);
  probe::Hop labeled;
  labeled.probe_ttl = 2;
  labeled.address = netbase::Ipv4Address(5, 0, 0, 9);
  labeled.reply_kind = netbase::PacketKind::kTimeExceeded;
  labeled.reply_ip_ttl = 247;
  labeled.labels = {{19, 0, true, 1}, {24, 0, false, 3}};
  trace.hops.push_back(labeled);

  std::stringstream ss;
  WriteTrace(ss, trace);
  const auto back = ReadTraces(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_FALSE(back[0].hops[0].address.has_value());
  ASSERT_EQ(back[0].hops[1].labels.size(), 2u);
  EXPECT_EQ(back[0].hops[1].labels[0].label, 19u);
  EXPECT_EQ(back[0].hops[1].labels[1].ttl, 3);
}

TEST(Tracefile, RejectsMalformedInput) {
  const auto reject = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(ReadTraces(ss), std::runtime_error) << text;
  };
  reject("H 1 5.0.0.1 x 255 0.1\n");             // hop outside a trace
  reject("T 5.0.0.1 5.0.0.2 0 1 0\nT 5.0.0.1 5.0.0.2 0 1 0\n");  // nested
  reject("T 5.0.0.1 5.0.0.2 0 1 0\n");            // unterminated
  reject("T bogus 5.0.0.2 0 1 0\n.\n");           // bad address
  reject("T 5.0.0.1 5.0.0.2 0 1 0\nH 1 5.0.0.3 z 255 0.1\n.\n");  // bad kind
  reject("Z nonsense\n");                          // unknown tag
  reject("T 5.0.0.1 5.0.0.2 0 1 0\nH 1 5.0.0.3 x 255 0.1 Lbroken\n.\n");
}

/// The message ReadTraces throws for `text`; fails the test if it throws
/// anything else, or nothing.
std::string ReadError(const std::string& text) {
  std::stringstream ss(text);
  try {
    ReadTraces(ss);
  } catch (const std::runtime_error& error) {
    return error.what();
  } catch (...) {
    ADD_FAILURE() << "non-runtime_error escaped for: " << text;
    return "";
  }
  ADD_FAILURE() << "accepted: " << text;
  return "";
}

constexpr const char* kTraceHead = "T 5.0.0.1 5.0.0.2 0 1 0\n";

TEST(Tracefile, NonNumericLabelIsARuntimeError) {
  // std::stoul used to throw std::invalid_argument here.
  EXPECT_NE(ReadError(std::string(kTraceHead) +
                      "H 1 5.0.0.3 x 255 0.1 Labc:1\n.\n")
                .find("bad label"),
            std::string::npos);
}

TEST(Tracefile, RejectsLabelThatOverflows32Bits) {
  // Used to wrap to label 1215752191.
  EXPECT_NE(ReadError(std::string(kTraceHead) +
                      "H 1 5.0.0.3 x 255 0.1 L99999999999:1\n.\n")
                .find("bad label"),
            std::string::npos);
}

TEST(Tracefile, RejectsLabelAbove20Bits) {
  EXPECT_NE(ReadError(std::string(kTraceHead) +
                      "H 1 5.0.0.3 x 255 0.1 L2000000:1\n.\n")
                .find("bad label"),
            std::string::npos);
  // 2^20 - 1 is the largest label and still reads.
  std::stringstream ss(std::string(kTraceHead) +
                       "H 1 5.0.0.3 x 255 0.1 L1048575:1\n.\n");
  const auto traces = ReadTraces(ss);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].hops[0].labels[0].label, 1048575u);
}

TEST(Tracefile, RejectsLabelTtlAbove255) {
  // Used to read as TTL 44 (300 mod 256).
  EXPECT_NE(ReadError(std::string(kTraceHead) +
                      "H 1 5.0.0.3 x 255 0.1 L16:300\n.\n")
                .find("bad label TTL"),
            std::string::npos);
}

TEST(Tracefile, EveryErrorNamesItsLine) {
  EXPECT_EQ(ReadError("# comment\n\nT 5.0.0.1 5.0.0.2 0 1 0\n"
                      "H 1 5.0.0.3 x 999 0.1\n.\n"),
            "tracefile line 4: bad reply TTL: 999");
  EXPECT_EQ(ReadError("T 5.0.0.1 5.0.0.2 0 1 0\n"),
            "tracefile line 1: unterminated trace record");
  EXPECT_EQ(ReadError("T 5.0.0.1 5.0.0.2 70000 1 0\n.\n"),
            "tracefile line 1: bad flow id: 70000");
  EXPECT_EQ(ReadError("T 5.0.0.1 5.0.0.2 0 1 0\nH 1 * extra\n.\n"),
            "tracefile line 2: fields after a timeout hop");
}

TEST(Tracefile, IgnoresCommentsAndBlankLines) {
  std::stringstream ss(
      "# a comment\n\nT 5.0.0.1 5.0.0.2 3 0 0\n# inside\nH 1 *\n.\n");
  const auto traces = ReadTraces(ss);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].flow_id, 3);
  EXPECT_EQ(traces[0].hops.size(), 1u);
}

}  // namespace
}  // namespace wormhole::io
