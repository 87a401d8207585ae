#include <gtest/gtest.h>

#include "bit_digest.hpp"
#include "layout/system/channel.hpp"
#include "layout/system/floorplan.hpp"
#include "layout/system/wren.hpp"

namespace lay = amsyn::layout;
namespace geom = amsyn::geom;

namespace {
std::vector<lay::Block> mixedChip() {
  // Two noisy digital blocks, two sensitive analog blocks, one quiet.
  return {
      {"dsp", 800, 600, 10.0, 0.0},
      {"ctrl", 500, 400, 6.0, 0.0},
      {"adc", 400, 400, 0.0, 8.0},
      {"pll", 300, 300, 0.0, 5.0},
      {"rom", 400, 300, 0.0, 0.0},
  };
}

std::vector<lay::BlockNet> chipNets() {
  return {
      {"bus", {"dsp", "ctrl", "rom"}},
      {"sig", {"adc", "pll"}},
      {"clk", {"dsp", "pll"}},
  };
}
}  // namespace

// ------------------------------------------------------------- floorplan

TEST(Slicing, ProducesLegalFloorplan) {
  const auto fp = lay::slicingFloorplan(mixedChip(), chipNets());
  EXPECT_TRUE(fp.overlapFree);
  EXPECT_EQ(fp.blocks.size(), 5u);
  // Area sanity: chip must hold the blocks but not be absurdly large.
  geom::Coord blockArea = 0;
  for (const auto& b : mixedChip()) blockArea += b.width * b.height;
  EXPECT_GE(fp.chipBox.area(), blockArea);
  EXPECT_LE(fp.chipBox.area(), blockArea * 4);
}

TEST(Slicing, DeterministicForSeed) {
  lay::FloorplanOptions opts;
  opts.seed = 12;
  const auto a = lay::slicingFloorplan(mixedChip(), chipNets(), opts);
  const auto b = lay::slicingFloorplan(mixedChip(), chipNets(), opts);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i)
    EXPECT_EQ(a.blocks[i].rect, b.blocks[i].rect);
}

TEST(Slicing, SeedChangesTheFloorplan) {
  // On the small fixture above every seed lands on one floorplan, so only
  // examples/mixed_signal_chip's blocks and nets can show that the
  // annealer reads its seed.
  const std::vector<lay::Block> blocks = {
      {"dsp", 8000, 6000, 10.0, 0.0}, {"ctrl", 5000, 4000, 6.0, 0.0},
      {"adc", 4000, 4000, 0.0, 8.0},  {"vco", 3000, 3000, 0.0, 5.0},
      {"rom", 4000, 3000, 0.0, 0.0},
  };
  const std::vector<lay::BlockNet> nets = {
      {"bus", {"dsp", "ctrl", "rom"}},
      {"sample", {"adc", "dsp"}},
      {"clk", {"vco", "dsp", "ctrl"}},
  };
  lay::FloorplanOptions seed1;
  seed1.noiseWeight = 0.0;
  seed1.seed = 1;
  lay::FloorplanOptions seed12 = seed1;
  seed12.seed = 12;
  const auto a = lay::slicingFloorplan(blocks, nets, seed1);
  const auto b = lay::slicingFloorplan(blocks, nets, seed12);
  EXPECT_TRUE(a.overlapFree);
  EXPECT_TRUE(b.overlapFree);
  EXPECT_NE(a.chipBox, b.chipBox);
  EXPECT_NE(a.wirelength, b.wirelength);
}

TEST(SubstrateNoise, FallsWithDistance) {
  const auto blocks = mixedChip();
  std::vector<lay::PlacedBlock> close = {
      {"dsp", geom::Rect::fromSize(0, 0, 800, 600), false},
      {"adc", geom::Rect::fromSize(850, 0, 400, 400), false},
  };
  std::vector<lay::PlacedBlock> far = {
      {"dsp", geom::Rect::fromSize(0, 0, 800, 600), false},
      {"adc", geom::Rect::fromSize(4000, 0, 400, 400), false},
  };
  EXPECT_GT(lay::substrateNoise(blocks, close, 400.0),
            lay::substrateNoise(blocks, far, 400.0));
}

TEST(Wright, NoiseAwareFloorplanSeparatesNoisyFromSensitive) {
  lay::FloorplanOptions quietOpts;
  quietOpts.noiseWeight = 0.0;
  quietOpts.seed = 21;
  lay::FloorplanOptions noiseOpts;
  noiseOpts.noiseWeight = 6.0;
  noiseOpts.seed = 21;
  const auto fpQuiet = lay::wrightFloorplan(mixedChip(), chipNets(), quietOpts);
  const auto fpNoise = lay::wrightFloorplan(mixedChip(), chipNets(), noiseOpts);
  EXPECT_TRUE(fpNoise.overlapFree);
  // The substrate-aware floorplan must have equal or lower coupling.
  EXPECT_LE(fpNoise.substrateNoise, fpQuiet.substrateNoise * 1.05);
}

TEST(Wright, BlockLookupWorks) {
  const auto fp = lay::wrightFloorplan(mixedChip(), chipNets());
  EXPECT_NO_THROW(fp.block("adc"));
  EXPECT_THROW(fp.block("nope"), std::out_of_range);
}

// ------------------------------------------------------------- channel

TEST(Channel, SimpleTwoNetChannel) {
  // net a: top@1, bottom@5; net b: top@6, bottom@2 — overlapping spans.
  std::vector<lay::ChannelPin> pins = {
      {"a", 1, true}, {"a", 5, false}, {"b", 6, true}, {"b", 2, false}};
  const auto r = lay::routeChannel(pins);
  ASSERT_TRUE(r.routable);
  EXPECT_EQ(r.assignments.size(), 2u);
  EXPECT_GE(r.height, r.densityLowerBound);
}

TEST(Channel, NonOverlappingNetsShareTrack) {
  std::vector<lay::ChannelPin> pins = {
      {"a", 0, true}, {"a", 2, false}, {"b", 5, true}, {"b", 8, false}};
  const auto r = lay::routeChannel(pins);
  ASSERT_TRUE(r.routable);
  EXPECT_EQ(r.height, 1);  // left-edge packs them into one track
}

TEST(Channel, VerticalConstraintRespected) {
  // Column 3: top pin of "t", bottom pin of "b" -> t's track above b's.
  std::vector<lay::ChannelPin> pins = {
      {"t", 3, true}, {"t", 7, true}, {"b", 3, false}, {"b", 6, false}};
  const auto r = lay::routeChannel(pins);
  ASSERT_TRUE(r.routable);
  int tTrack = -1, bTrack = -1;
  for (const auto& a : r.assignments) {
    if (a.net == "t") tTrack = a.track;
    if (a.net == "b") bTrack = a.track;
  }
  EXPECT_GT(tTrack, bTrack);
}

TEST(Channel, CyclicVcgDetected) {
  // Column 1: a above b; column 4: b above a -> cycle.
  std::vector<lay::ChannelPin> pins = {
      {"a", 1, true}, {"b", 1, false}, {"b", 4, true}, {"a", 4, false}};
  const auto r = lay::routeChannel(pins);
  EXPECT_FALSE(r.routable);
}

TEST(Channel, WideWireOccupiesMultipleTracks) {
  std::vector<lay::ChannelPin> pins = {
      {"pwr", 0, true}, {"pwr", 9, false}, {"sig", 1, true}, {"sig", 8, false}};
  std::vector<lay::ChannelNetSpec> specs = {{"pwr", lay::WireClass::Quiet, 3}};
  const auto r = lay::routeChannel(pins, specs);
  ASSERT_TRUE(r.routable);
  EXPECT_GE(r.height, 4);  // 3 tracks of power + 1 of signal
}

TEST(Channel, ClassSeparationAddsSpace) {
  std::vector<lay::ChannelPin> pins = {
      {"noisy", 0, true}, {"noisy", 9, false}, {"sens", 1, true}, {"sens", 8, false}};
  std::vector<lay::ChannelNetSpec> specs = {{"noisy", lay::WireClass::Noisy, 1},
                                            {"sens", lay::WireClass::Sensitive, 1}};
  lay::ChannelOptions plain;
  plain.classSeparationTracks = 0;
  lay::ChannelOptions spaced;
  spaced.classSeparationTracks = 2;
  const auto r0 = lay::routeChannel(pins, specs, plain);
  const auto r1 = lay::routeChannel(pins, specs, spaced);
  ASSERT_TRUE(r0.routable);
  ASSERT_TRUE(r1.routable);
  EXPECT_GT(r1.height, r0.height);           // separation costs tracks...
  EXPECT_LT(r1.crosstalkAdjacency, r0.crosstalkAdjacency + 1);  // ...but kills adjacency
  EXPECT_GT(r0.crosstalkAdjacency, 0);
  EXPECT_EQ(r1.crosstalkAdjacency, 0);
}

TEST(Channel, ShieldInsertionReported) {
  std::vector<lay::ChannelPin> pins = {
      {"noisy", 0, true}, {"noisy", 9, false}, {"sens", 1, true}, {"sens", 8, false}};
  std::vector<lay::ChannelNetSpec> specs = {{"noisy", lay::WireClass::Noisy, 1},
                                            {"sens", lay::WireClass::Sensitive, 1}};
  lay::ChannelOptions opts;
  opts.classSeparationTracks = 1;
  opts.insertShields = true;
  const auto r = lay::routeChannel(pins, specs, opts);
  ASSERT_TRUE(r.routable);
  EXPECT_GE(r.shieldsInserted, 1u);
  EXPECT_EQ(r.crosstalkAdjacency, 0);
}

// ------------------------------------------------------------- WREN

namespace {
lay::ChannelGraph ladderGraph() {
  // 3x2 grid of junctions.
  lay::ChannelGraph g;
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i < 3; ++i) g.addNode({i * 1000, j * 1000});
  auto id = [](int i, int j) { return static_cast<std::size_t>(j * 3 + i); };
  for (int j = 0; j < 2; ++j)
    for (int i = 0; i + 1 < 3; ++i) g.addEdge(id(i, j), id(i + 1, j), 8);
  for (int i = 0; i < 3; ++i) g.addEdge(id(i, 0), id(i, 1), 8);
  return g;
}
}  // namespace

TEST(Wren, RoutesAllNets) {
  const auto g = ladderGraph();
  std::vector<lay::GlobalNet> nets = {
      {"clk", lay::WireClass::Noisy, {{0, 0}, {2000, 0}}, 0.0},
      {"sig", lay::WireClass::Sensitive, {{0, 1000}, {2000, 1000}}, 0.0},
  };
  const auto r = lay::wrenGlobalRoute(g, nets);
  EXPECT_TRUE(r.routed.at("clk"));
  EXPECT_TRUE(r.routed.at("sig"));
  EXPECT_FALSE(r.anyOverflow);
}

TEST(Wren, SensitiveNetAvoidsNoisyChannels) {
  const auto g = ladderGraph();
  // Both nets connect the same endpoints; sensitive one should detour via
  // the other row to avoid sharing channels with the noisy one.
  std::vector<lay::GlobalNet> nets = {
      {"clk", lay::WireClass::Noisy, {{0, 0}, {2000, 0}}, 0.0},
      {"sig", lay::WireClass::Sensitive, {{0, 0}, {2000, 0}}, 0.0},
  };
  const auto r = lay::wrenGlobalRoute(g, nets);
  ASSERT_TRUE(r.routed.at("sig"));
  EXPECT_DOUBLE_EQ(r.couplingRaw.at("sig"), 0.0);  // fully avoided
}

TEST(Wren, ConstraintMapperMeetsSnrBudget) {
  // Force sharing with a tiny graph: a single corridor.
  lay::ChannelGraph g;
  g.addNode({0, 0});
  g.addNode({4000, 0});
  g.addEdge(0, 1, 8);
  std::vector<lay::GlobalNet> nets = {
      {"clk", lay::WireClass::Noisy, {{0, 0}, {4000, 0}}, 0.0},
      {"sig", lay::WireClass::Sensitive, {{0, 0}, {4000, 0}}, 0.5},
  };
  const auto r = lay::wrenGlobalRoute(g, nets);
  ASSERT_TRUE(r.routed.at("sig"));
  EXPECT_GT(r.couplingRaw.at("sig"), 0.5);           // violates raw...
  EXPECT_LE(r.couplingMitigated.at("sig"), 0.5);     // ...mapper fixes it
  EXPECT_TRUE(r.snrMet.at("sig"));
  EXPECT_FALSE(r.directives.empty());                // via separation/shield
}

TEST(Wren, ChannelGraphFromFloorplanConnects) {
  const auto fp = lay::slicingFloorplan(mixedChip(), chipNets());
  const auto g = lay::channelGraphFromFloorplan(fp);
  EXPECT_GT(g.nodes.size(), 4u);
  EXPECT_GT(g.edges.size(), 4u);
  // Route one net between two block corners.
  std::vector<lay::GlobalNet> nets = {
      {"n", lay::WireClass::Quiet,
       {{fp.chipBox.x0, fp.chipBox.y0}, {fp.chipBox.x1, fp.chipBox.y1}}, 0.0}};
  const auto r = lay::wrenGlobalRoute(g, nets);
  EXPECT_TRUE(r.routed.at("n"));
}

// ------------------------------------------------------------- goldens

namespace {
void addRect(amsyn::testutil::BitDigest& d, const geom::Rect& r) {
  d.i64(r.x0).i64(r.y0).i64(r.x1).i64(r.y1);
}

std::string floorplanDigest(const lay::Floorplan& fp) {
  amsyn::testutil::BitDigest d;
  d.u64(fp.blocks.size());
  for (const auto& b : fp.blocks) {
    d.str(b.name).u64(b.rotated);
    addRect(d, b.rect);
  }
  addRect(d, fp.chipBox);
  d.real(fp.wirelength).real(fp.substrateNoise).u64(fp.overlapFree);
  return d.hex();
}

std::string wrenDigest(const lay::WrenResult& r) {
  amsyn::testutil::BitDigest d;
  for (const auto& [net, edges] : r.routeOf) {
    d.str(net).u64(edges.size());
    for (const std::size_t e : edges) d.u64(e);
  }
  for (const auto& [net, ok] : r.routed) d.str(net).u64(ok);
  d.u64(r.usageTracks.size());
  for (const int t : r.usageTracks) d.i64(t);
  d.u64(r.anyOverflow);
  for (const auto& [net, c] : r.couplingRaw) d.str(net).real(c);
  for (const auto& [net, c] : r.couplingMitigated) d.str(net).real(c);
  for (const auto& [net, met] : r.snrMet) d.str(net).u64(met);
  for (const auto& dir : r.directives)
    d.u64(dir.edge).i64(dir.extraSeparationTracks).u64(dir.shield);
  return d.hex();
}
}  // namespace

// Raw floorplan bits on the mixed-chip fixture: the slicing floorplanner at
// its default seed and at seed 12, and WRIGHT without and with its
// substrate-noise term.
TEST(LayerGoldens, SlicingAndWrightFloorplans) {
  lay::FloorplanOptions seed12;
  seed12.seed = 12;
  lay::FloorplanOptions quiet;
  quiet.noiseWeight = 0.0;
  quiet.seed = 21;
  lay::FloorplanOptions noisy;
  noisy.noiseWeight = 6.0;
  noisy.seed = 21;
  const auto slicing = [](const lay::FloorplanOptions& o) {
    return floorplanDigest(lay::slicingFloorplan(mixedChip(), chipNets(), o));
  };
  const auto wright = [](const lay::FloorplanOptions& o) {
    return floorplanDigest(lay::wrightFloorplan(mixedChip(), chipNets(), o));
  };
  EXPECT_EQ(slicing({}), "0xb9307d23485b4ce2");
  EXPECT_EQ(slicing(seed12), "0xb9307d23485b4ce2");
  EXPECT_EQ(wright({}), "0xb9307d23485b4ce2");
  EXPECT_EQ(wright(quiet), "0xa2eb34f1dabbf5b4");
  EXPECT_EQ(wright(noisy), "0xeaff104336fa796c");
}

// Raw WREN bits: the ladder with separate and with shared endpoints, the
// single corridor the constraint mapper must fix, and the channel graph of
// the slicing floorplan.
TEST(LayerGoldens, WrenGlobalRoutes) {
  const auto ladder = ladderGraph();
  const std::vector<lay::GlobalNet> rows = {
      {"clk", lay::WireClass::Noisy, {{0, 0}, {2000, 0}}, 0.0},
      {"sig", lay::WireClass::Sensitive, {{0, 1000}, {2000, 1000}}, 0.0},
  };
  const std::vector<lay::GlobalNet> shared = {
      {"clk", lay::WireClass::Noisy, {{0, 0}, {2000, 0}}, 0.0},
      {"sig", lay::WireClass::Sensitive, {{0, 0}, {2000, 0}}, 0.0},
  };
  EXPECT_EQ(wrenDigest(lay::wrenGlobalRoute(ladder, rows)), "0x8bc6024b9eec092f");
  EXPECT_EQ(wrenDigest(lay::wrenGlobalRoute(ladder, shared)), "0x079f58c74606b7e3");

  lay::ChannelGraph corridor;
  corridor.addNode({0, 0});
  corridor.addNode({4000, 0});
  corridor.addEdge(0, 1, 8);
  const std::vector<lay::GlobalNet> budgeted = {
      {"clk", lay::WireClass::Noisy, {{0, 0}, {4000, 0}}, 0.0},
      {"sig", lay::WireClass::Sensitive, {{0, 0}, {4000, 0}}, 0.5},
  };
  EXPECT_EQ(wrenDigest(lay::wrenGlobalRoute(corridor, budgeted)), "0xddd86bd413c8abb2");

  const auto fp = lay::slicingFloorplan(mixedChip(), chipNets());
  const std::vector<lay::GlobalNet> diagonal = {
      {"n", lay::WireClass::Quiet,
       {{fp.chipBox.x0, fp.chipBox.y0}, {fp.chipBox.x1, fp.chipBox.y1}}, 0.0},
      {"clk", lay::WireClass::Noisy,
       {{fp.chipBox.x0, fp.chipBox.y1}, {fp.chipBox.x1, fp.chipBox.y0}}, 0.0},
      {"sig", lay::WireClass::Sensitive,
       {{fp.chipBox.x0, fp.chipBox.y0}, {fp.chipBox.x1, fp.chipBox.y0}}, 0.2},
  };
  EXPECT_EQ(wrenDigest(lay::wrenGlobalRoute(lay::channelGraphFromFloorplan(fp), diagonal)),
            "0x00b75735c094ae45");
}
