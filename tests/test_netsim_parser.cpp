// Tests for the topology description parser.
#include <gtest/gtest.h>

#include <string>

#include "ohpx/netsim/parser.hpp"

namespace ohpx::netsim {
namespace {

constexpr std::string_view kSample = R"(
# the paper's figure-4 world
lan lab atm155 campus=0
lan annex ethernet100 campus=0
lan uni ethernet100 campus=1

machine bigiron lab
machine ws17 lab
machine annex1 annex
machine cluster uni

wan lab annex atm155
default_wan t3
loopback custom:2000:20
)";

TEST(Parser, ParsesFullDescription) {
  const ParsedTopology parsed = parse_topology(kSample);
  EXPECT_EQ(parsed.lans.size(), 3u);
  EXPECT_EQ(parsed.machines.size(), 4u);

  const Topology& topo = parsed.topology();
  EXPECT_TRUE(topo.same_lan(parsed.machine("bigiron"), parsed.machine("ws17")));
  EXPECT_TRUE(
      topo.same_campus(parsed.machine("bigiron"), parsed.machine("annex1")));
  EXPECT_FALSE(
      topo.same_campus(parsed.machine("bigiron"), parsed.machine("cluster")));

  EXPECT_EQ(topo.link_between(parsed.machine("bigiron"), parsed.machine("ws17"))
                .name,
            "atm-155");
  EXPECT_EQ(
      topo.link_between(parsed.machine("bigiron"), parsed.machine("annex1"))
          .name,
      "atm-155");  // explicit wan directive
  EXPECT_EQ(
      topo.link_between(parsed.machine("bigiron"), parsed.machine("cluster"))
          .name,
      "wan-t3");  // default wan
  EXPECT_EQ(
      topo.link_between(parsed.machine("bigiron"), parsed.machine("bigiron"))
          .name,
      "custom-2000:20");
}

TEST(Parser, CommentsAndBlanksIgnored) {
  const auto parsed = parse_topology("# nothing\n\nlan a # trailing\n");
  EXPECT_EQ(parsed.lans.size(), 1u);
}

TEST(Parser, LinkSpecPresets) {
  EXPECT_EQ(parse_link_spec("ethernet10").name, "ethernet-10");
  EXPECT_EQ(parse_link_spec("ethernet100").name, "ethernet-100");
  EXPECT_EQ(parse_link_spec("atm155").name, "atm-155");
  EXPECT_EQ(parse_link_spec("t3").name, "wan-t3");
  EXPECT_EQ(parse_link_spec("loopback").name, "loopback");
}

TEST(Parser, CustomLinkSpec) {
  const LinkSpec link = parse_link_spec("custom:622:200");
  EXPECT_DOUBLE_EQ(link.bandwidth_bps, 622e6);
  EXPECT_EQ(link.latency, std::chrono::microseconds(200));
}

TEST(Parser, MalformedInputsRejectedWithLineNumbers) {
  const char* bad_cases[] = {
      "bogus directive",
      "lan",                         // missing name
      "lan a\nlan a",                // duplicate LAN
      "machine m nowhere",           // unknown LAN
      "lan a\nmachine m a\nmachine m a",  // duplicate machine
      "lan a\nwan a b t3",           // unknown LAN in wan
      "lan a\nlan b\nwan a b warp",  // unknown link
      "default_wan",                 // missing link
      "loopback",                    // missing link
      "lan a badlink",               // unknown link on lan
      "lan a campus=x",              // bad campus id
      "lan a campus=7x",             // a campus id with trailing bytes
      "lan a campus=-1",
      "lan a campus=4294967296",     // past u32
  };
  for (const char* text : bad_cases) {
    EXPECT_THROW(parse_topology(text), Error) << text;
  }
}

TEST(Parser, MalformedCustomLinksRejected) {
  const std::string specs[] = {
      "custom:abc:10",   "custom:100",       "custom:-5:10",
      "warp-drive",      "custom:nan:5",     "custom:inf:5",
      "custom:100abc:5", "custom:1e3:5",     "custom:0:5",
      "custom:1e308:5",  "custom: 100:5",    "custom:100:5us",
      "custom:100:-1",   "custom:100:",      "custom:" + std::string(320, '9') + ":5"};
  for (const std::string& spec : specs) {
    EXPECT_THROW(parse_link_spec(spec), Error) << spec;
  }
  EXPECT_DOUBLE_EQ(parse_link_spec("custom:0.5:0").bandwidth_bps, 0.5e6);
}

TEST(Parser, LookupFailuresThrow) {
  const auto parsed = parse_topology("lan a\nmachine m a\n");
  EXPECT_THROW(parsed.lan("missing"), Error);
  EXPECT_THROW(parsed.machine("missing"), Error);
  EXPECT_NO_THROW(parsed.lan("a"));
  EXPECT_NO_THROW(parsed.machine("m"));
}

}  // namespace
}  // namespace ohpx::netsim
