import hashlib
import json
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import per_row_generate

from lecnce import datagen
from lecnce.datagen import (
    CLIP_LEN,
    LEVELS,
    Dataset,
    HierarchicalSample,
    Level,
    ProcedureSpec,
    generate_dataset,
    load_dataset,
    _split_ids,
    save_dataset,
)
from lecnce.errors import CorruptFileError, FieldValueError, InfeasibleSpecError
from lecnce.numerics import make_rng


def small_spec(**overrides):
    base = dict(
        step_library_size=8,
        latent_dim=12,
        visual_dim=16,
        text_dim=10,
        steps_per_procedure=4,
        frames_per_step=4,
        noise_sigma=0.1,
        order_noise=0.0,
        seed=5,
    )
    base.update(overrides)
    return ProcedureSpec(**base)


def all_samples(ds: Dataset):
    return [s for lvl in ("clip", "phase", "video") for s in ds.by_level(lvl)]


class TestSpecValidation:
    def test_k_exceeds_library(self):
        with pytest.raises(ValueError):
            small_spec(steps_per_procedure=9)

    def test_bad_order_noise(self):
        with pytest.raises(ValueError):
            small_spec(order_noise=1.5)

    def test_infeasible_concepts(self):
        with pytest.raises(InfeasibleSpecError):
            generate_dataset(small_spec(latent_dim=2, step_library_size=50, steps_per_procedure=4), 4)


class TestGenerateDataset:
    def test_deterministic(self):
        a_train, a_hold = generate_dataset(small_spec(), 6)
        b_train, b_hold = generate_dataset(small_spec(), 6)
        for a, b in ((a_train, b_train), (a_hold, b_hold)):
            sa, sb = all_samples(a), all_samples(b)
            assert len(sa) == len(sb)
            for x, y in zip(sa, sb):
                np.testing.assert_array_equal(x.frame_features, y.frame_features)
                np.testing.assert_array_equal(x.parent_text_feature, y.parent_text_feature)
                np.testing.assert_array_equal(x.child_text_features, y.child_text_features)
                assert x.step_labels == y.step_labels and x.procedure_id == y.procedure_id

    def test_counts_and_shapes(self):
        spec = small_spec()
        train, hold = generate_dataset(spec, 10, holdout_fraction=0.2)
        assert len(train.procedure_ids) == 8 and len(hold.procedure_ids) == 2
        clips_per_proc = spec.steps_per_procedure * spec.frames_per_step // CLIP_LEN
        assert len(train.by_level("clip")) == 8 * clips_per_proc
        assert len(train.by_level("phase")) == 8 * spec.steps_per_procedure
        assert len(train.by_level("video")) == 8
        video = train.by_level("video")[0]
        assert video.frame_features.shape == (spec.steps_per_procedure * spec.frames_per_step, spec.visual_dim)
        assert video.child_text_features.shape == (spec.steps_per_procedure, spec.text_dim)
        phase = train.by_level("phase")[0]
        assert phase.child_text_features.shape[0] == spec.frames_per_step // CLIP_LEN
        clip = train.by_level("clip")[0]
        assert clip.child_text_features.shape == (0, spec.text_dim)

    def test_zero_noise_collapses_step_frames(self):
        train, _ = generate_dataset(small_spec(noise_sigma=0.0), 4)
        for phase in train.by_level("phase"):
            np.testing.assert_allclose(
                phase.frame_features,
                np.broadcast_to(phase.frame_features[0], phase.frame_features.shape),
                atol=1e-12,
            )

    def test_within_step_similarity_exceeds_across(self):
        spec = ProcedureSpec(seed=3)  # defaults: S=12, latent 16, sigma 0.1
        train, _ = generate_dataset(spec, 8)
        video = train.by_level("video")[0]
        frames = video.frame_features / np.linalg.norm(video.frame_features, axis=1, keepdims=True)
        labels = np.asarray(video.step_labels)
        sims = frames @ frames.T
        same = sims[labels[:, None] == labels[None, :]]
        diff = sims[labels[:, None] != labels[None, :]]
        assert same.mean() > diff.mean()

    def test_recoverability_ceiling(self):
        spec = ProcedureSpec(noise_sigma=0.05, seed=11)
        train, hold = generate_dataset(spec, 10)
        truth = train.ground_truth
        total, correct = 0, 0
        for ds in (train, hold):
            for video in ds.by_level("video"):
                preds = truth.recover_steps(video.frame_features)
                correct += int(np.sum(preds == np.asarray(video.step_labels)))
                total += len(video.step_labels)
        assert correct / total >= 0.99

    def test_labels_non_decreasing_without_order_noise(self):
        train, hold = generate_dataset(small_spec(), 6)
        for ds in (train, hold):
            for video in ds.by_level("video"):
                labels = video.step_labels
                assert all(a <= b for a, b in zip(labels, labels[1:]))

    @pytest.mark.parametrize("order_noise", [0.0, 0.5])
    def test_block_draws_match_the_per_row_oracle(self, order_noise):
        spec = small_spec(frames_per_step=8, order_noise=order_noise)  # two clips per step
        got, want = generate_dataset(spec, 9), per_row_generate(spec, 9)
        for g, w in zip(got, want):
            assert g.procedure_ids == w.procedure_ids
            for a, b in zip(astuple(g.ground_truth), astuple(w.ground_truth)):
                assert np.array_equal(a, b)
            for level in LEVELS:
                for a, b in zip(astuple(g.samples[level]), astuple(w.samples[level])):
                    assert np.array_equal(a, b)
        labels = np.concatenate([ds.samples["video"].labels for ds in got])
        assert np.any(np.diff(labels, axis=1) < 0) == (order_noise > 0)

    def test_full_order_noise_rotates_each_selection_left(self):
        """The swaps run in turn, so with order_noise=1 the first step is carried to the end."""
        spec = small_spec(order_noise=1.0)
        for ds in generate_dataset(spec, 6):
            for order in ds.samples["video"].labels[:, :: spec.frames_per_step]:
                assert order.tolist() == np.roll(np.sort(order), -1).tolist()

    def test_concept_separation(self):
        train, _ = generate_dataset(small_spec(), 4)
        c = train.ground_truth.concepts
        np.testing.assert_allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-12)
        gram = c @ c.T
        off = gram[~np.eye(len(c), dtype=bool)]
        assert off.max() <= np.cos(np.deg2rad(30.0)) + 1e-12


class TestLevel:
    def test_int_index_is_a_sample_of_row_views(self):
        train, _ = generate_dataset(small_spec(), 4)
        rows = train.samples["phase"]
        sample = rows[-2]
        assert isinstance(sample, HierarchicalSample)
        assert (sample.level, sample.procedure_id) == ("phase", int(rows.procedure_ids[-2]))
        assert sample.step_labels == rows.labels[-2].tolist() and all(type(v) is int for v in sample.step_labels)
        for array, stack in ((sample.frame_features, rows.frames), (sample.parent_text_feature, rows.parents),
                             (sample.child_text_features, rows.children)):
            assert np.shares_memory(array, stack) and np.array_equal(array, stack[-2])
        assert rows[np.int64(1)].procedure_id == rows[1].procedure_id

    @pytest.mark.parametrize("index", [slice(1, 7, 2), slice(0, 0), np.array([5, 0, 5]), np.arange(12) % 3 == 0])
    def test_other_indices_select_rows(self, index):
        train, _ = generate_dataset(small_spec(), 4)
        rows = train.samples["clip"]
        picked = rows[index]
        assert isinstance(picked, Level) and picked.name == "clip"
        want = np.arange(len(rows))[index]
        assert len(picked) == len(want)
        for name in ("frames", "parents", "children", "labels", "procedure_ids"):
            assert np.array_equal(getattr(picked, name), getattr(rows, name)[want])
        assert [s.procedure_id for s in (picked[k] for k in range(len(picked)))] == rows.procedure_ids[want].tolist()

    def test_a_batch_without_labels_indexes_like_any_level(self):
        # a training batch carries labels=None: a slice keeps None, a sample's step_labels is None
        train, _ = generate_dataset(small_spec(), 4)
        rows = train.samples["video"]
        batch = Level(rows.name, rows.frames, rows.parents, rows.children, None, rows.procedure_ids)
        assert batch[0].step_labels is None and batch[np.int64(1)].procedure_id == rows[1].procedure_id
        tail = batch[1:]
        assert isinstance(tail, Level) and tail.labels is None and np.array_equal(tail.frames, rows.frames[1:])
        samples = list(batch)
        assert len(samples) == len(rows) and all(s.step_labels is None for s in samples)
        assert [s.procedure_id for s in samples] == rows.procedure_ids.tolist()

    @pytest.mark.parametrize("level", ["clip", "phase", "video"])
    def test_write_through_a_view_changes_only_its_row(self, level):
        train, _ = generate_dataset(small_spec(), 4)
        before = {lvl: {name: getattr(rows, name).copy() for name in ("frames", "parents", "children")}
                  for lvl, rows in train.samples.items()}
        sample = train.samples[level][1]
        for array in (sample.frame_features, sample.parent_text_feature, sample.child_text_features):
            array += 1.0
        for lvl, rows in train.samples.items():
            for name, old in before[lvl].items():
                changed = np.any(getattr(rows, name) != old, axis=tuple(range(1, old.ndim)))
                want = [lvl == level and k == 1 and old[k].size > 0 for k in range(len(old))]
                assert changed.tolist() == want, (lvl, name)


class TestLazyLevels:
    """``Dataset.samples`` gathers a level, as its own copy, the first time it is read."""

    @pytest.fixture()
    def gathered(self, monkeypatch):
        names = []
        gather = datagen._gather
        monkeypatch.setattr(datagen, "_gather", lambda *args: names.append(args[-1]) or gather(*args))
        return names

    def test_a_level_read_twice_is_gathered_once(self, gathered):
        train, holdout = generate_dataset(small_spec(), 4)
        assert gathered == []
        phase = train.samples["phase"]
        assert train.samples["phase"] is phase and train.samples.get("phase") is phase
        assert len(train.by_level("phase")) == len(phase) and gathered == ["phase"]
        assert list(train.samples) == list(LEVELS) and "video" in train.samples and len(train.samples) == 3
        assert gathered == ["phase"]  # iterating the names and asking for one gathers nothing
        assert dict(train.samples)["phase"] is phase and gathered == ["phase", "clip", "video"]
        assert holdout.samples.get("trajectory") is None and gathered == ["phase", "clip", "video"]

    def test_an_assigned_level_replaces_the_gather(self, gathered):
        train, _ = generate_dataset(small_spec(), 4)
        train.samples["video"] = empty = train.samples["phase"][:0]
        assert train.samples["video"] is empty and dict(train.samples)["video"] is empty
        assert gathered == ["phase", "clip"]


class TestSplitHoldout:
    """``generate_dataset``'s own split: floor(fraction * n), at least 1, held out, by whole procedures."""

    def test_half_split(self):
        train, hold = generate_dataset(small_spec(), 12, holdout_fraction=0.5)
        assert len(train.procedure_ids) == 6 and len(hold.procedure_ids) == 6
        assert not set(train.procedure_ids) & set(hold.procedure_ids)

    def test_floor_min_one(self):
        for fraction, n_hold in ((0.2, 5), (0.1, 2), (0.01, 1)):
            train, hold = generate_dataset(small_spec(), 25, holdout_fraction=fraction)
            assert len(hold.procedure_ids) == n_hold and len(train.procedure_ids) == 25 - n_hold

    def test_partition_is_exact(self):
        spec = small_spec()
        a, b = generate_dataset(spec, 8, holdout_fraction=0.25)
        assert sorted(a.procedure_ids + b.procedure_ids) == list(range(8))
        per = {"clip": spec.steps_per_procedure * spec.frames_per_step // CLIP_LEN, "phase": spec.steps_per_procedure,
               "video": 1}
        for part in (a, b):
            for lvl, rows in part.samples.items():
                assert sorted(set(rows.procedure_ids.tolist())) == part.procedure_ids
                assert len(rows) == per[lvl] * len(part.procedure_ids)

    def test_degenerate_split(self):
        # SplitSpec refuses a split that could leave a side empty, before anything is drawn
        for n_procedures, fraction in ((1, 0.5), (4, 0.0), (4, 1.0)):
            with pytest.raises(FieldValueError):
                generate_dataset(small_spec(), n_procedures, holdout_fraction=fraction)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_valid_spec_leaves_both_sides_nonempty(self, n, fraction):
        train_ids, hold_ids = _split_ids(list(range(n)), fraction, make_rng(4))
        assert len(hold_ids) == max(1, int(np.floor(fraction * n))) <= n - 1
        assert sorted(train_ids + hold_ids) == list(range(n))


class TestDatasetFiles:
    def test_roundtrip_values(self, tmp_path):
        train, hold = generate_dataset(small_spec(), 6)
        save_dataset(train, hold, tmp_path)
        train2, hold2 = load_dataset(tmp_path)
        assert train2.spec == train.spec
        np.testing.assert_array_equal(train2.ground_truth.concepts, train.ground_truth.concepts)
        for a, b in ((train, train2), (hold, hold2)):
            for sa, sb in zip(all_samples(a), all_samples(b)):
                np.testing.assert_array_equal(sa.frame_features, sb.frame_features)
                np.testing.assert_array_equal(sa.parent_text_feature, sb.parent_text_feature)
                np.testing.assert_array_equal(sa.child_text_features, sb.child_text_features)
                assert sa.step_labels == sb.step_labels

    def test_save_load_save_byte_identical(self, tmp_path):
        train, hold = generate_dataset(small_spec(), 6)
        first, second = tmp_path / "a", tmp_path / "b"
        save_dataset(train, hold, first)
        save_dataset(*load_dataset(first), second)
        for name in ("manifest.json", "data.bin", "groundtruth.bin"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_splits_of_two_datasets_are_refused(self, tmp_path):
        train, hold = generate_dataset(small_spec(), 6)
        for pair in ((train, generate_dataset(small_spec(), 6)[1]), (train, train), (hold, hold)):
            with pytest.raises(FieldValueError, match="^holdout must be the other split of the dataset train"):
                save_dataset(*pair, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_corruption_detected(self, tmp_path):
        train, hold = generate_dataset(small_spec(), 6)
        save_dataset(train, hold, tmp_path)
        blob = bytearray((tmp_path / "data.bin").read_bytes())
        blob[13] ^= 0xFF
        (tmp_path / "data.bin").write_bytes(bytes(blob))
        with pytest.raises(CorruptFileError, match="data.bin hash mismatch"):
            load_dataset(tmp_path)

    def test_roundtrip_several_clips_per_step_with_order_noise(self, tmp_path):
        spec = small_spec(frames_per_step=12, order_noise=0.5)
        train, hold = generate_dataset(spec, 7)
        save_dataset(train, hold, tmp_path)
        for made, loaded in zip((train, hold), load_dataset(tmp_path)):
            assert loaded.procedure_ids == made.procedure_ids
            assert_same_samples(all_samples(loaded), all_samples(made))
            for name in ("concepts", "render_visual", "render_text"):
                assert np.array_equal(getattr(loaded.ground_truth, name), getattr(made.ground_truth, name))
            assert_nested(loaded, spec)
            assert_nested(made, spec)
        orders = [tuple(v.step_labels[::12]) for ds in (train, hold) for v in ds.by_level("video")]
        assert any(list(o) != sorted(o) for o in orders)  # the order noise swapped some steps

    def test_data_file_holds_each_procedure_once(self, tmp_path):
        spec = small_spec(frames_per_step=8)
        train, hold = generate_dataset(spec, 6)
        save_dataset(train, hold, tmp_path)
        s, f, c = spec.steps_per_procedure, spec.frames_per_step, spec.frames_per_step // CLIP_LEN
        per_procedure = s * f * spec.visual_dim + s * c * spec.text_dim + s * spec.text_dim + spec.text_dim
        assert (tmp_path / "data.bin").stat().st_size == 8 * 6 * per_procedure
        assert "samples" not in json.loads((tmp_path / "manifest.json").read_text())

    @pytest.mark.parametrize("level", ["clip", "phase", "video"])
    def test_a_write_into_a_level_is_not_saved(self, tmp_path, level):
        """data.bin is written from the procedure arrays, so a level's copy does not reach it."""
        train, hold = generate_dataset(small_spec(frames_per_step=8), 5)
        save_dataset(train, hold, tmp_path / "before")
        for rows in (train.samples[level], hold.samples[level]):
            for array in (rows.frames, rows.parents, rows.children, rows.labels):
                array += 1
        save_dataset(train, hold, tmp_path / "after")
        for name in ("manifest.json", "data.bin", "groundtruth.bin"):
            assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()

    @pytest.mark.parametrize("level", ["clip", "phase", "video"])
    def test_changing_one_sample_leaves_the_others(self, tmp_path, level):
        train, hold = generate_dataset(small_spec(frames_per_step=8), 5)
        save_dataset(train, hold, tmp_path)
        for changed in (train, load_dataset(tmp_path)[0]):
            sample = changed.by_level(level)[1]
            for array in (sample.frame_features, sample.parent_text_feature, sample.child_text_features):
                array += 1.0
            fresh = load_dataset(tmp_path)[0]
            for lvl in ("clip", "phase", "video"):
                for k, (a, b) in enumerate(zip(changed.by_level(lvl), fresh.by_level(lvl))):
                    same = all(np.array_equal(getattr(a, name), getattr(b, name))
                               for name in ("frame_features", "parent_text_feature", "child_text_features"))
                    assert same == ((lvl, k) != (level, 1)), (lvl, k)


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.level, a.procedure_id, a.step_labels) == (b.level, b.procedure_id, b.step_labels)
        assert all(type(label) is int for label in a.step_labels)
        for name in ("frame_features", "parent_text_feature", "child_text_features"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and np.array_equal(x, y) and x.flags.writeable


def assert_nested(ds: Dataset, spec: ProcedureSpec):
    """Clips tile their phase and phases their video, in frames, texts and labels."""
    f, c = spec.frames_per_step, spec.frames_per_step // CLIP_LEN
    clips, phases = ds.by_level("clip"), ds.by_level("phase")
    assert len(clips) == len(phases) * c
    for k, phase in enumerate(phases):
        own = clips[k * c : (k + 1) * c]
        assert {clip.procedure_id for clip in own} == {phase.procedure_id}
        assert np.array_equal(np.concatenate([clip.frame_features for clip in own]), phase.frame_features)
        assert np.array_equal(np.stack([clip.parent_text_feature for clip in own]), phase.child_text_features)
        assert [label for clip in own for label in clip.step_labels] == phase.step_labels == [phase.step_labels[0]] * f
    s = spec.steps_per_procedure
    for k, video in enumerate(ds.by_level("video")):
        own = phases[k * s : (k + 1) * s]
        assert {phase.procedure_id for phase in own} == {video.procedure_id}
        assert np.array_equal(np.concatenate([phase.frame_features for phase in own]), video.frame_features)
        assert np.array_equal(np.stack([phase.parent_text_feature for phase in own]), video.child_text_features)
        assert [label for phase in own for label in phase.step_labels] == video.step_labels


# ---------------------------------------------------------------------------
# damaged dataset directories
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("saved")
    save_dataset(*generate_dataset(small_spec(frames_per_step=8), 4), out)
    return {path.name: path.read_bytes() for path in out.iterdir()}


def rehash(manifest: dict) -> dict:
    """``manifest`` with a manifest_sha256 that matches its other keys."""
    body = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return {**body, "manifest_sha256": hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()}


def _empty_split(manifest: dict, empty: str, other: str) -> None:
    """Move every procedure id of split ``empty`` into split ``other``."""
    manifest[other] = sorted(manifest[other] + manifest[empty])
    manifest[empty] = []


# edits of the manifest that keep it valid JSON; each is also tried with a
# recomputed manifest_sha256, which the size and structure checks must catch
MANIFEST_EDITS = {
    "visual_dim": lambda m: m["spec"].update(visual_dim=20),
    "frames_per_step": lambda m: m["spec"].update(frames_per_step=4),
    "float_dim": lambda m: m["spec"].update(text_dim=10.0),
    "unknown_spec_key": lambda m: m["spec"].update(colour="red"),
    "spec_not_object": lambda m: m.update(spec=[1, 2]),
    "no_files": lambda m: m.pop("files"),
    "no_step_orders": lambda m: m.pop("step_orders"),
    "data_hash": lambda m: m["files"].update({"data.bin": hashlib.sha256(b"other").hexdigest()}),
    "truth_hash": lambda m: m["files"].update({"groundtruth.bin": "0" * 64}),
    "short_orders": lambda m: m["step_orders"].pop(),
    "label_out_of_range": lambda m: m["step_orders"][0].__setitem__(0, 8),
    "float_label": lambda m: m["step_orders"][0].__setitem__(0, 1.0),
    "ragged_orders": lambda m: m["step_orders"][1].pop(),
    "duplicate_id": lambda m: m["train_procedures"].append(m["holdout_procedures"][0]),
    "id_as_string": lambda m: m.update(holdout_procedures=[str(i) for i in m["holdout_procedures"]]),
    "empty_train": lambda m: _empty_split(m, "train_procedures", "holdout_procedures"),
    "empty_holdout": lambda m: _empty_split(m, "holdout_procedures", "train_procedures"),
}


def old_format(manifest: dict) -> dict:
    """The manifest as the per-sample format wrote it: sample records, no step orders or self-hash."""
    old = {k: v for k, v in manifest.items() if k not in ("manifest_sha256", "step_orders")}
    old["samples"] = [{"level": "clip", "procedure_id": 0, "step_labels": [0] * CLIP_LEN, "offset": 0,
                       "n_frames": CLIP_LEN, "n_children": 0, "split": "train"}]
    return old


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_damaged_directory_raises_corrupt_file_error(saved_files, data):
    files = dict(saved_files)
    kind = data.draw(st.sampled_from(["truncate", "flip", "edit", "old_format"]), label="kind")
    if kind in ("truncate", "flip"):
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        blob = files[name]
        if kind == "truncate":  # the manifest loses at least its closing brace, not only the newline
            files[name] = blob[: data.draw(st.integers(0, len(blob) - (2 if name == "manifest.json" else 1)))]
        else:
            pos = data.draw(st.integers(0, len(blob) - 1), label="byte")
            files[name] = blob[:pos] + bytes([blob[pos] ^ (1 << data.draw(st.integers(0, 7)))]) + blob[pos + 1 :]
    else:
        manifest = json.loads(files["manifest.json"])
        if kind == "old_format":
            manifest = old_format(manifest)
        else:
            original = json.dumps(manifest, sort_keys=True)
            MANIFEST_EDITS[data.draw(st.sampled_from(sorted(MANIFEST_EDITS)), label="edit")](manifest)
            assert json.dumps(manifest, sort_keys=True) != original
            if data.draw(st.booleans(), label="rehash"):
                manifest = rehash(manifest)
        files["manifest.json"] = json.dumps(manifest, indent=1).encode()
    with tempfile.TemporaryDirectory() as out:
        for name, blob in files.items():
            Path(out, name).write_bytes(blob)
        with pytest.raises(CorruptFileError) as info:
            load_dataset(out)
    if kind == "old_format":
        assert "regenerate" in str(info.value)


def test_undamaged_copy_loads(saved_files, tmp_path):
    manifest = json.loads(saved_files["manifest.json"])
    assert rehash(manifest) == manifest
    for name, blob in saved_files.items():
        (tmp_path / name).write_bytes(blob)
    train, hold = load_dataset(tmp_path)
    assert len(train.procedure_ids) + len(hold.procedure_ids) == 4


@pytest.mark.parametrize("field, value", [("noise_sigma", True), ("order_noise", False), ("text_dim", 10.0),
                                          ("noise_sigma", "0.1")])
def test_mistyped_spec_field_named(saved_files, tmp_path, field, value):
    """A rehashed manifest whose spec field has the wrong JSON type is rejected as the config's data section is."""
    manifest = json.loads(saved_files["manifest.json"])
    manifest["spec"][field] = value
    for name, blob in saved_files.items():
        (tmp_path / name).write_bytes(blob)
    (tmp_path / "manifest.json").write_text(json.dumps(rehash(manifest)))
    with pytest.raises(CorruptFileError, match=rf"spec\.{field} must be of type (int|float), got {value!r}"):
        load_dataset(tmp_path)
