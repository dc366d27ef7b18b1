/**
 * @file
 * The prep_functional workload: real sample preparation through one
 * PrepExecutor, as a closed loop of fixed-size mixed batches.
 *
 * The corpus (synthetic 256x256 q85 JPEGs and synthetic utterances,
 * 4:1) is generated from the workload seed before timing. Every
 * prepared item is checked (ok, shape, finite). A fixed check subset,
 * independent of the seed, is run through the noise-free decode, crop,
 * mirror and cast kernels and its digests go to run.py, which compares
 * them with the stored references.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/random.hh"
#include "prep/audio/audio_ops.hh"
#include "prep/audio/mel.hh"
#include "prep/audio/stft.hh"
#include "prep/audio/wave_gen.hh"
#include "prep/executor/prep_executor.hh"
#include "prep/image/image_ops.hh"
#include "prep/jpeg/jpeg_decoder.hh"
#include "prep/pipeline.hh"

namespace perfbench {
namespace {

using Jpeg = std::vector<std::uint8_t>;
using Wave = std::vector<double>;

constexpr int kImageSide = 256;
constexpr int kCrop = 224;
constexpr std::size_t kImagesPerBatch = 8;
constexpr std::size_t kAudioPerBatch = 2;

/** Core-ms per sample the simulator is calibrated with (DESIGN.md §4). */
constexpr double kImageCalibMs = 1.572;
constexpr double kAudioCalibMs = 5.450;

struct Corpus
{
    std::vector<Jpeg> images;
    std::vector<Wave> audio;
};

Corpus
makeCorpus(std::uint64_t seed, std::size_t images, std::size_t audio)
{
    Corpus c;
    tb::Rng rng(seed);
    for (std::size_t i = 0; i < images; ++i)
        c.images.push_back(
            tb::prep::makeSyntheticJpeg(kImageSide, kImageSide, rng, 85));
    const tb::audio::WaveGenConfig wave;
    for (std::size_t i = 0; i < audio; ++i)
        c.audio.push_back(tb::audio::generateUtterance(wave, rng));
    return c;
}

/** FNV-1a over raw bytes, as 16 hex digits. */
std::string
digest(const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < bytes; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

template <typename T>
std::string
digest(const std::vector<T> &v)
{
    return digest(v.data(), v.size() * sizeof(T));
}

template <typename T>
bool
allFinite(const std::vector<T> &v)
{
    return std::all_of(v.begin(), v.end(),
                       [](T x) { return std::isfinite(x); });
}

/** Noise-free decode/crop/mirror/cast digests of the fixed check subset. */
void
checkSubsetDigests(std::size_t items, Result &res)
{
    const Corpus check = makeCorpus(0x636865636bull, items, 0);
    for (std::size_t i = 0; i < check.images.size(); ++i) {
        const std::uint64_t op = res.newOp();
        const std::string key = "img" + std::to_string(i);
        const tb::jpeg::DecodeResult dec =
            tb::jpeg::decodeJpeg(check.images[i]);
        if (!dec.ok) {
            res.fail(op, key + ": check subset failed to decode");
            for (const char *stage : {"/decode", "/crop", "/mirror", "/cast"})
                res.digests.emplace_back(key + stage, "none", op);
            continue;
        }
        const tb::Image crop =
            tb::imageops::crop(dec.image, 16, 16, kCrop, kCrop);
        const tb::Image mirror = tb::imageops::mirrorHorizontal(crop);
        res.digests.emplace_back(key + "/decode", digest(dec.image.pixels),
                                 op);
        res.digests.emplace_back(key + "/crop", digest(crop.pixels), op);
        res.digests.emplace_back(key + "/mirror", digest(mirror.pixels), op);
        res.digests.emplace_back(
            key + "/cast", digest(tb::imageops::castToFloatTensor(mirror)),
            op);
    }
}

/** Times every prep kernel on a single thread over corpus items. */
class KernelPass
{
  public:
    explicit KernelPass(Result &res) : res_(res) {}

    template <typename Fn>
    auto
    time(const char *kernel, double bytes, Fn fn)
    {
        const auto t0 = Clock::now();
        auto out = fn();
        samples_[kernel].push_back(1e3 * secondsSince(t0));
        mb_[kernel] = bytes / 1e6;
        return out;
    }

    void
    run(const Corpus &c, std::size_t images, std::size_t audio)
    {
        namespace io = tb::imageops;
        namespace ao = tb::audio;
        tb::Rng rng(7);
        const double crop_bytes = 3.0 * kCrop * kCrop;
        for (std::size_t i = 0; i < images; ++i) {
            const Jpeg &jpg = c.images[i % c.images.size()];
            const auto dec = time("jpeg_decode",
                                  jpg.size() + 3.0 * kImageSide * kImageSide,
                                  [&] { return tb::jpeg::decodeJpeg(jpg); });
            const auto crop = time("random_crop", 2 * crop_bytes, [&] {
                return io::randomCrop(dec.image, kCrop, kCrop, rng);
            });
            const auto mir = time("mirror", 2 * crop_bytes,
                                  [&] { return io::mirrorHorizontal(crop); });
            const auto noisy = time("noise", 2 * crop_bytes, [&] {
                return io::addGaussianNoise(mir, 4.0, rng);
            });
            time("cast", 5 * crop_bytes,
                 [&] { return io::castToFloatTensor(noisy); });
        }
        const ao::StftConfig stft;
        const ao::MelConfig mel;
        const ao::MaskConfig mask;
        for (std::size_t i = 0; i < audio; ++i) {
            Wave wave = c.audio[i % c.audio.size()];
            const double wave_bytes = 8.0 * wave.size();
            time("wave_noise", 2 * wave_bytes, [&] {
                ao::addNoise(wave, 0.005, rng);
                return 0;
            });
            const auto power = time("stft", 0.0,
                                    [&] { return ao::stft(wave, stft); });
            const double power_bytes = 8.0 * power.power.size();
            mb_["stft"] = (wave_bytes + power_bytes) / 1e6;
            auto feat = time("logmel", 0.0, [&] {
                return ao::logMel(power, mel, stft.fftSize);
            });
            const double feat_bytes = 8.0 * feat.power.size();
            mb_["logmel"] = (power_bytes + feat_bytes) / 1e6;
            time("masks", 2 * feat_bytes, [&] {
                ao::applyMasks(feat, mask, rng);
                return 0;
            });
            time("normalize", 2 * feat_bytes, [&] {
                ao::normalize(feat);
                return 0;
            });
        }
        for (auto &[kernel, v] : samples_) {
            std::sort(v.begin(), v.end());
            res_.layers["prep.k." + kernel + "_ms"] = v[v.size() / 2];
            res_.layers["prep.k." + kernel + "_mb"] = mb_[kernel];
        }
    }

  private:
    Result &res_;
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, double> mb_;
};

/** The closed-loop client: one batch in flight, checked on return. */
class BatchClient
{
  public:
    BatchClient(const Corpus &c, Result &res) : corpus_(c), res_(res) {}

    /** Submit, wait for and check one batch; returns samples prepared. */
    std::uint64_t
    batch(tb::prep::PrepExecutor &exec, Spans *spans)
    {
        std::vector<Jpeg> imgs;
        for (std::size_t i = 0; i < kImagesPerBatch; ++i)
            imgs.push_back(corpus_.images[nextImage_++ %
                                          corpus_.images.size()]);
        std::vector<Wave> waves;
        for (std::size_t i = 0; i < kAudioPerBatch; ++i)
            waves.push_back(corpus_.audio[nextAudio_++ %
                                          corpus_.audio.size()]);
        const std::size_t wave_len = waves.front().size();

        const auto t0 = Clock::now();
        std::vector<std::future<tb::prep::PreparedImage>> fi;
        std::vector<std::future<tb::prep::PreparedAudio>> fa;
        {
            Spans::Scope s(spans, "prep.submitImageBatch", batch_);
            fi = exec.submitImageBatch(std::move(imgs));
        }
        {
            Spans::Scope s(spans, "prep.submitAudioBatch", batch_);
            fa = exec.submitAudioBatch(std::move(waves));
        }
        std::uint64_t ok = 0;
        {
            Spans::Scope s(spans, "prep.wait", batch_);
            for (auto &f : fi)
                ok += checkImage(f.get());
            for (auto &f : fa)
                ok += checkAudio(f.get(), wave_len, exec.config());
        }
        res_.opMs.push_back(1e3 * secondsSince(t0));
        ++batch_;
        return ok;
    }

    /** One batch whose latency is set-up, not a latency sample. */
    void
    warmUp(tb::prep::PrepExecutor &exec)
    {
        batch(exec, nullptr);
        res_.opMs.pop_back();
    }

  private:
    bool
    checkImage(const tb::prep::PreparedImage &p)
    {
        const std::uint64_t op = res_.newOp();
        if (p.ok && p.width == kCrop && p.height == kCrop &&
            p.channels == 3 &&
            p.tensor.size() == static_cast<std::size_t>(3 * kCrop * kCrop) &&
            allFinite(p.tensor))
            return true;
        res_.fail(op,
                  "image item: " + (p.ok ? "bad shape or value" : p.error));
        return false;
    }

    bool
    checkAudio(const tb::prep::PreparedAudio &p, std::size_t wave_len,
               const tb::prep::ExecutorConfig &cfg)
    {
        const std::uint64_t op = res_.newOp();
        const auto &f = p.features;
        if (p.ok &&
            f.frames == tb::audio::numFrames(wave_len, cfg.audio.stft) &&
            f.bins == cfg.audio.mel.numMels &&
            f.power.size() == f.frames * f.bins && allFinite(f.power))
            return true;
        res_.fail(op,
                  "audio item: " + (p.ok ? "bad shape or value" : p.error));
        return false;
    }

    const Corpus &corpus_;
    Result &res_;
    std::size_t nextImage_ = 0;
    std::size_t nextAudio_ = 0;
    std::uint64_t batch_ = 0;
};

tb::prep::ExecutorConfig
executorConfig()
{
    tb::prep::ExecutorConfig cfg;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    cfg.numWorkers = std::clamp<std::size_t>(hw - 1, 1, 3);
    return cfg;
}

/** Executor time and items of traced batches only. */
struct TracedBatches
{
    double images = 0, audio = 0, items = 0;
    double imageS = 0, audioS = 0, waitS = 0;

    /** Run one traced batch and add its executor-counter deltas. */
    std::uint64_t
    run(BatchClient &client, tb::prep::PrepExecutor &exec, Spans &spans)
    {
        const auto before = exec.statsSnapshot();
        const std::uint64_t ok = client.batch(exec, &spans);
        const auto after = exec.statsSnapshot();
        images += after.imageItems - before.imageItems;
        audio += after.audioItems - before.audioItems;
        items += after.itemsPrepared - before.itemsPrepared;
        imageS += after.imagePrepSeconds - before.imagePrepSeconds;
        audioS += after.audioPrepSeconds - before.audioPrepSeconds;
        waitS += after.queueWaitSeconds - before.queueWaitSeconds;
        return ok;
    }

    /** @p wallS: wall time of the traced batches. */
    void
    report(Result &res, const tb::prep::PrepExecutor &exec,
           double wallS) const
    {
        const double image_ms = images > 0 ? 1e3 * imageS / images : 0.0;
        const double audio_ms = audio > 0 ? 1e3 * audioS / audio : 0.0;
        res.layers["prep.image_core_ms"] = image_ms;
        res.layers["prep.audio_core_ms"] = audio_ms;
        res.layers["prep.image_calib_ratio"] = image_ms / kImageCalibMs;
        res.layers["prep.audio_calib_ratio"] = audio_ms / kAudioCalibMs;
        res.layers["prep.queue_wait_ms"] =
            items > 0 ? 1e3 * waitS / items : 0.0;
        res.layers["prep.worker_busy_frac"] =
            (imageS + audioS) /
            (static_cast<double>(exec.numWorkers()) * wallS);
        const auto stats = exec.statsSnapshot();
        res.layers["prep.items_failed"] = stats.itemsFailed;
        res.layers["prep.items_retried"] = stats.itemsRetried;
        res.layers["prep.items_quarantined"] = stats.itemsQuarantined;
    }
};

} // namespace

Result
probePrepLayers(std::uint64_t seed)
{
    Result res;
    const Corpus corpus = makeCorpus(seed, 4, 1);
    BatchClient client(corpus, res);
    tb::prep::PrepExecutor exec(executorConfig());
    client.warmUp(exec);
    Spans spans;
    TracedBatches traced;
    Window w;
    for (int k = 0; k < 3; ++k)
        w = w + once([&] { return traced.run(client, exec, spans); });
    traced.report(res, exec, w.wallS);
    KernelPass(res).run(corpus, 4, 1);
    return res;
}

Result
runPrepFunctional(const Options &opt)
{
    Result res;
    res.opUnit = "batch";
    const Corpus corpus = opt.tiny ? makeCorpus(opt.seed, 8, 2)
                                   : makeCorpus(opt.seed, 64, 16);
    checkSubsetDigests(opt.tiny ? 1 : 4, res);

    const tb::prep::ExecutorConfig cfg = executorConfig();
    BatchClient client(corpus, res);

    // Set-up: executor construction plus one warm-up batch. The window is
    // split into segments, each measured on an executor set up just
    // before it, so the set-up samples are spread through the run.
    std::unique_ptr<tb::prep::PrepExecutor> exec;
    const auto setUp = [&] {
        exec.reset();
        const auto t0 = Clock::now();
        exec = std::make_unique<tb::prep::PrepExecutor>(cfg);
        client.warmUp(*exec);
        res.setupS.push_back(secondsSince(t0));
    };

    // At least 210 batches, so p95 has ten samples beyond it on a slow
    // host too.
    if (!opt.trace) {
        constexpr int kSegments = 15;
        for (int k = 0; k < kSegments; ++k) {
            setUp();
            res.window =
                res.window +
                measureLoop(
                    opt.seconds / kSegments,
                    [&] { return client.batch(*exec, nullptr); },
                    opt.tiny ? 1 : 14);
        }
        res.info["workers"] = static_cast<double>(exec->numWorkers());
        return res;
    }

    setUp();
    Spans spans;
    TracedBatches traced;
    const Paired p = pairedLoop(
        opt.seconds, 1,
        [&](std::size_t) { return client.batch(*exec, nullptr); },
        [&](std::size_t) { return traced.run(client, *exec, spans); });
    res.window = p.plain + p.traced;
    traced.report(res, *exec, p.traced.wallS);
    res.layers["trace.overhead_pct"] = overheadPct(p.plain, p.traced);

    KernelPass kernels(res);
    kernels.run(corpus, opt.tiny ? 2 : 16, opt.tiny ? 1 : 4);
    if (!opt.tracePath.empty())
        spans.writeChromeTrace(opt.tracePath);
    return res;
}

} // namespace perfbench
