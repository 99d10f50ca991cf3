"""Synthetic compositional-generalization translation benchmark.

The task is word-by-word translation with one structural phenomenon: a
postpositive modifier (mod) follows its head noun on the source side but its
realization precedes the head's on the target side. Sentences are a sampled
context template with one compound (a 2..4 atom phrase) spliced into the
slot. Source and target token alphabets are disjoint (lowercase vs
uppercase families), so copying cannot masquerade as translation.

The generalization split (cg_test) holds out whole compounds: novel atom
combinations whose source token sequence never occurs contiguously anywhere
in the training corpus, while every individual atom stays covered. Each
held-out compound is rendered in a fixed number of distinct contexts, which
is what the aggregate error ratio quantifies over.

Metrics: instance-level compound translation error ratio (a prediction errs
when the realization of the example's compound does not occur contiguously
in it), aggregate-level CTER (a compound errs when any of its contexts errs),
and exact match.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .fileio import atomic_write, check_number_fields

__all__ = [
    "PAD", "BOS", "EOS", "SPECIALS", "PATTERNS", "SPLITS",
    "GenerationError", "CorpusSpec", "Vocabulary",
    "Compound", "Example", "Corpus", "CTERReport",
    "realize_compound", "generate_corpus", "write_corpus", "load_corpus",
    "check_compound", "cter", "exact_match", "bucket_context_length",
    "example_to_triple", "triples",
]

PAD, BOS, EOS = 0, 1, 2
SPECIALS = ("<pad>", "<s>", "</s>")

# Compound patterns: role sequences in source order. mod is postpositive,
# attached to the nearest preceding np.
PATTERNS: dict[str, tuple[str, ...]] = {
    "np_mod": ("np", "mod"),
    "vp_np": ("vp", "np"),
    "pp_np": ("pp", "np"),
    "vp_np_mod": ("vp", "np", "mod"),
    "pp_np_mod": ("pp", "np", "mod"),
    "vp_pp_np": ("vp", "pp", "np"),
    "vp_pp_np_mod": ("vp", "pp", "np", "mod"),
}

SPLITS = ("train", "dev", "test", "cg_test")

_ROLE_PREFIX = {"np": "n", "vp": "v", "pp": "p", "mod": "m"}

# RNG purpose tags (numpy SeedSequence entropy extensions).
_TAG_CONTEXTS = 11
_TAG_HOLDOUT = 12
_TAG_TRAIN = 13
_TAG_DEV = 14
_TAG_TEST = 15
_TAG_CG = 16


class GenerationError(ValueError):
    """The corpus spec cannot be satisfied (holdout infeasible, etc.)."""


@dataclass(frozen=True)
class CorpusSpec:
    """What generate_corpus builds; construction refuses a bad spec. A list
    of pattern names is stored as a tuple."""

    n_np: int = 40
    n_vp: int = 40
    n_pp: int = 40
    n_mod: int = 40
    n_context_tokens: int = 30
    n_contexts: int = 24
    min_context_len: int = 2
    max_context_len: int = 14
    n_train: int = 8000
    n_dev: int = 500
    n_test: int = 500
    n_cg_compounds: int = 120
    contexts_per_compound: int = 5
    patterns: tuple = tuple(PATTERNS)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.patterns, (list, tuple)):
            raise GenerationError("patterns must be a list of distinct pattern "
                                  f"names, got {self.patterns!r}")
        object.__setattr__(self, "patterns", tuple(self.patterns))
        check_number_fields(self, GenerationError)
        if self.n_context_tokens < 1 or self.n_contexts < 1:
            raise GenerationError("need at least one context token and template")
        if self.min_context_len > self.max_context_len:
            raise GenerationError("bad context length range")
        if self.n_train < 1:
            raise GenerationError("n_train must be >= 1")
        # Every inventory is built and enters the vocabularies, and a train
        # sentence holds at most one atom of each role.
        for role in _ROLE_PREFIX:
            if self._inventory_size(role) > self.n_train:
                raise GenerationError(
                    f"n_{role} is {self._inventory_size(role)} but n_train is "
                    f"{self.n_train}: no atom inventory may exceed n_train"
                )
        if self.contexts_per_compound < 1:
            raise GenerationError("contexts_per_compound must be >= 1")
        if self.n_cg_compounds > 0 and self.n_contexts < self.contexts_per_compound:
            raise GenerationError(
                f"need >= {self.contexts_per_compound} context templates to place "
                "each held-out compound in distinct contexts"
            )
        if not self.patterns:
            raise GenerationError("at least one compound pattern is required")
        for name in self.patterns:
            if not isinstance(name, str) or name not in PATTERNS:
                raise GenerationError(f"unknown pattern {name!r}")
            if self.patterns.count(name) > 1:
                raise GenerationError("patterns must be a list of distinct pattern "
                                      f"names, got {name!r} twice")
            for role in PATTERNS[name]:
                if self._inventory_size(role) < 1:
                    raise GenerationError(
                        f"pattern {name!r} needs {role} atoms but the inventory "
                        "is empty"
                    )

    def _inventory_size(self, role: str) -> int:
        return {"np": self.n_np, "vp": self.n_vp, "pp": self.n_pp,
                "mod": self.n_mod}[role]

    def compound_space(self) -> int:
        total = 0
        for name in self.patterns:
            size = 1
            for role in PATTERNS[name]:
                size *= self._inventory_size(role)
            total += size
        return total

    def split_sizes(self) -> dict[str, int]:
        """Examples per split, by split name; generate_corpus makes exactly
        these counts."""
        return {"train": self.n_train, "dev": self.n_dev, "test": self.n_test,
                "cg_test": self.n_cg_compounds * self.contexts_per_compound}

    def to_dict(self) -> dict:
        d = asdict(self)
        d["patterns"] = list(self.patterns)
        return d


class Vocabulary:
    """Token list with specials pinned at indices 0..2."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tuple(tokens[:3]) != SPECIALS:
            raise ValueError(f"vocabulary must start with {SPECIALS}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, seq) -> np.ndarray:
        return np.array([self.index[tok] for tok in seq], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        return [self.tokens[int(i)] for i in ids]


@dataclass(frozen=True)
class Compound:
    pattern: str
    atoms: tuple

    @property
    def roles(self) -> tuple:
        return PATTERNS[self.pattern]


@functools.cache  # one order per pattern; callers only read it
def _emission_order(roles) -> list[int]:
    """Target-side order of atom indices: each mod jumps before its head np."""
    order = list(range(len(roles)))
    for j, role in enumerate(roles):
        if role == "mod":
            head = max(i for i in range(j) if roles[i] == "np")
            order.remove(j)
            order.insert(order.index(head), j)
    return order


def _translate(words, dictionary: dict) -> tuple:
    """The target tokens of ``words``: each word's realization in turn."""
    out: list[str] = []
    for word in words:
        try:
            out.extend(dictionary[word])
        except KeyError:
            raise GenerationError(f"atom {word!r} missing from dictionary") from None
    return tuple(out)


def realize_compound(compound: Compound, dictionary: dict) -> tuple:
    """The compound's target realization, reordered, as a token tuple."""
    return _translate([compound.atoms[i] for i in _emission_order(compound.roles)],
                      dictionary)


@dataclass
class Example:
    """A compound at ``src[span[0]:span[1]]`` of context ``context_id``; its
    ``realization`` is in ``tgt``. cg_test numbers its compounds by ``compound_id``."""

    src: tuple
    tgt: tuple
    compound: Compound
    span: tuple
    realization: tuple
    context_id: int
    compound_id: int | None = None

    @property
    def compound_length(self) -> int:
        return len(self.compound.atoms)

    @property
    def context_length(self) -> int:
        return len(self.src) - self.compound_length

    @property
    def context_bucket(self) -> str:
        return bucket_context_length(self.context_length)

    @property
    def has_mod(self) -> bool:
        return "mod" in self.compound.roles


@dataclass
class Corpus:
    spec: CorpusSpec
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    dictionary: dict  # source word -> its target realization, a token tuple
    train: list = field(default_factory=list)
    dev: list = field(default_factory=list)
    test: list = field(default_factory=list)
    cg_test: list = field(default_factory=list)

    def split(self, name: str) -> list:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def bucket_context_length(n: int) -> str:
    if n < 6:
        return "<6"
    if n <= 8:
        return "6-8"
    if n <= 12:
        return "9-12"
    return "13+"


# -- generation ---------------------------------------------------------------


def _inventories(spec: CorpusSpec) -> dict:
    return {
        role: tuple(f"{prefix}{i}" for i in range(spec._inventory_size(role)))
        for role, prefix in _ROLE_PREFIX.items()
    }


def _build_dictionary(spec: CorpusSpec, inventories: dict) -> dict:
    real: dict = {}
    for atoms in inventories.values():
        for atom in atoms:
            real[atom] = (atom.upper(),)
    for i in range(spec.n_context_tokens):
        real[f"c{i}"] = (f"C{i}",)
    return real


def _build_contexts(spec: CorpusSpec, rng: np.random.Generator,
                    dictionary: dict) -> list:
    """Each template as (prefix, suffix, their translations)."""
    ctx_tokens = tuple(f"c{i}" for i in range(spec.n_context_tokens))
    contexts = []
    for _ in range(spec.n_contexts):
        length = int(rng.integers(spec.min_context_len, spec.max_context_len + 1))
        cut = int(rng.integers(0, length + 1))
        words = [ctx_tokens[int(i)] for i in rng.integers(0, len(ctx_tokens),
                                                          size=length)]
        prefix, suffix = tuple(words[:cut]), tuple(words[cut:])
        contexts.append((prefix, suffix, _translate(prefix, dictionary),
                         _translate(suffix, dictionary)))
    return contexts


_WORD_BLOCK = 1024


class _Draws:
    """Bounded integers from one generator: ``below(n)`` is exactly
    ``int(rng.integers(n))``, reading the same 32-bit words, drawn in blocks.

    For ``n <= 2**32`` numpy's ``buffered_bounded_lemire_uint32``
    (numpy/random/src/distributions/distributions.c) maps a word ``w`` to
    ``w * n >> 32``, rejecting words whose low half falls below
    ``(2**32 - n) % n``: D. Lemire, "Fast Random Integer Generation in an
    Interval", ACM TOMACS 2019 (arXiv:1805.10941). ``n == 1`` reads no word.
    The generator belongs to this object alone: the words left unread in the
    last block are never wanted.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._words = iter(())

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._rng.integers(0, 1 << 32, size=_WORD_BLOCK,
                                                  dtype=np.uint32).tolist())
            return next(self._words)

    def below(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= 1 << 32:  # numpy takes another path above 2**32
            raise ValueError(f"bound must be in 1..2**32, got {n}")
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32


def _sample_compound(draws: _Draws, spec: CorpusSpec,
                     inventories: dict) -> Compound:
    pattern = spec.patterns[draws.below(len(spec.patterns))]
    atoms = tuple(
        inventories[role][draws.below(len(inventories[role]))]
        for role in PATTERNS[pattern]
    )
    return Compound(pattern, atoms)


class _HeldIndex:
    """Contiguous-window membership test for held-out source sequences."""

    def __init__(self, compounds):
        self.by_len: dict[int, set] = {}
        for c in compounds:
            self.by_len.setdefault(len(c.atoms), set()).add(c.atoms)

    def contained_in(self, tokens) -> bool:
        tokens = tuple(tokens)
        for length, seqs in self.by_len.items():
            for start in range(len(tokens) - length + 1):
                if tokens[start:start + length] in seqs:
                    return True
        return False


def _build_example(compound: Compound, context_id: int, contexts,
                   dictionary: dict,
                   compound_id: int | None = None) -> Example:
    prefix, suffix, tgt_prefix, tgt_suffix = contexts[context_id]
    realization = realize_compound(compound, dictionary)
    return Example(
        src=prefix + compound.atoms + suffix,
        tgt=tgt_prefix + realization + tgt_suffix,
        compound=compound,
        span=(len(prefix), len(prefix) + len(compound.atoms)),
        realization=realization,
        context_id=context_id,
        compound_id=compound_id,
    )


def _sample_split(n: int, tag: int, spec: CorpusSpec, inventories, contexts,
                  dictionary, held: "_HeldIndex") -> list:
    draws = _Draws(np.random.default_rng([spec.seed, tag]))
    out = []
    for _ in range(n):
        compound = None
        for _attempt in range(1000):
            cand = _sample_compound(draws, spec, inventories)
            if not held.contained_in(cand.atoms):
                compound = cand
                break
        if compound is None:
            raise GenerationError(
                "rejection sampling exhausted: the holdout excludes almost every "
                "compound; reduce n_cg_compounds or grow the atom inventories"
            )
        ctx_id = draws.below(spec.n_contexts)
        out.append(_build_example(compound, ctx_id, contexts, dictionary))
    return out


def _patch_atom_coverage(train, spec, inventories, contexts, dictionary,
                         held) -> None:
    """Replace tail examples until every atom occurs somewhere in train."""
    all_atoms = [(role, a) for role in ("np", "vp", "pp", "mod")
                 for a in inventories[role]
                 if any(role in PATTERNS[p] for p in spec.patterns)]
    patch_slot = len(train) - 1

    def covered() -> set:
        seen: set = set()
        for ex in train:
            seen.update(ex.compound.atoms)
        return seen

    for _round in range(4):
        have = covered()
        missing = [(role, a) for role, a in all_atoms if a not in have]
        if not missing:
            return
        for role, atom in missing:
            comp = _find_compound_with(role, atom, spec, inventories, held)
            if comp is None:
                raise GenerationError(
                    f"atom {atom!r} has no usable compound outside the holdout; "
                    "the holdout is infeasible for this spec"
                )
            if patch_slot < 0:
                raise GenerationError(
                    "n_train is too small to cover every atom"
                )
            ctx_id = patch_slot % spec.n_contexts
            train[patch_slot] = _build_example(comp, ctx_id, contexts, dictionary)
            patch_slot -= 1
    if any(a not in covered() for _, a in all_atoms):
        raise GenerationError("atom coverage could not be established")


def _find_compound_with(role: str, atom: str, spec: CorpusSpec, inventories,
                        held: "_HeldIndex") -> Compound | None:
    for pattern in spec.patterns:
        roles = PATTERNS[pattern]
        if role not in roles:
            continue
        pools = [(atom,) if r == role else inventories[r] for r in roles]
        for atoms in itertools.product(*pools):
            if not held.contained_in(atoms):
                return Compound(pattern, tuple(atoms))
    return None


def generate_corpus(spec: CorpusSpec) -> Corpus:
    """Deterministically build all four splits from the spec.

    Raises GenerationError when the holdout is infeasible: too few distinct
    compounds, an atom left uncoverable, or too few context templates.
    """
    inventories = _inventories(spec)
    dictionary = _build_dictionary(spec, inventories)
    contexts = _build_contexts(spec, np.random.default_rng([spec.seed, _TAG_CONTEXTS]),
                               dictionary)

    space = spec.compound_space()
    if spec.n_cg_compounds > 0 and space < 2 * spec.n_cg_compounds:
        raise GenerationError(
            f"only {space} distinct compounds exist but {spec.n_cg_compounds} "
            "should be held out; holdout is infeasible (need at least 2x)"
        )

    draws_hold = _Draws(np.random.default_rng([spec.seed, _TAG_HOLDOUT]))
    held_compounds: list[Compound] = []
    seen: set = set()
    attempts = 0
    while len(held_compounds) < spec.n_cg_compounds:
        cand = _sample_compound(draws_hold, spec, inventories)
        attempts += 1
        if cand not in seen:
            seen.add(cand)
            held_compounds.append(cand)
        if attempts > 200 * max(spec.n_cg_compounds, 1):
            raise GenerationError("could not sample enough distinct holdout compounds")
    held = _HeldIndex(held_compounds)

    train = _sample_split(spec.n_train, _TAG_TRAIN, spec, inventories, contexts,
                          dictionary, held)
    _patch_atom_coverage(train, spec, inventories, contexts, dictionary, held)
    dev = _sample_split(spec.n_dev, _TAG_DEV, spec, inventories, contexts,
                        dictionary, held)
    test = _sample_split(spec.n_test, _TAG_TEST, spec, inventories, contexts,
                         dictionary, held)

    rng_cg = np.random.default_rng([spec.seed, _TAG_CG])
    cg_test: list[Example] = []
    for cid, comp in enumerate(held_compounds):
        ctx_ids = rng_cg.choice(spec.n_contexts, size=spec.contexts_per_compound,
                                replace=False)
        for ctx_id in ctx_ids:
            cg_test.append(_build_example(comp, int(ctx_id), contexts, dictionary,
                                          compound_id=cid))

    # The dictionary maps every atom and context token: its keys are the source words.
    src_tokens = list(SPECIALS) + sorted(dictionary)
    tgt_tokens = list(SPECIALS) + sorted(
        {tok for real in dictionary.values() for tok in real}
    )
    return Corpus(
        spec=spec,
        src_vocab=Vocabulary(src_tokens),
        tgt_vocab=Vocabulary(tgt_tokens),
        dictionary=dictionary,
        train=train,
        dev=dev,
        test=test,
        cg_test=cg_test,
    )


# -- disk format ---------------------------------------------------------------


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _tokens(seq) -> str:
    return '["' + '","'.join(seq) + '"]'


def _example_line(ex: Example) -> str:
    """The corpus line of ``ex``, one JSON object with sorted keys and no
    spaces, from one template. No string needs escaping: atoms such as ``n12``
    and their uppercase realizations, context tokens ``c7``/``C7``, PATTERNS
    keys and the four bucket labels are built from ASCII letters, digits and
    ``_<-+`` alone. No token list is empty: each holds the compound."""
    c, (lo, hi) = ex.compound, ex.span
    cid = "null" if ex.compound_id is None else ex.compound_id
    mod = "true" if ex.has_mod else "false"
    return (f'{{"compound":{{"atoms":{_tokens(c.atoms)},"compound_id":{cid},'
            f'"pattern":"{c.pattern}","realizations":[{_tokens(ex.realization)}],'
            f'"span":[{lo},{hi}]}},"compound_length":{ex.compound_length},'
            f'"context_bucket":"{ex.context_bucket}","context_id":{ex.context_id},'
            f'"context_length":{ex.context_length},"has_mod":{mod},'
            f'"src":{_tokens(ex.src)},"tgt":{_tokens(ex.tgt)}}}\n')


def _split_lines(corpus: Corpus, name: str):
    """The lines of <name>.jsonl, one example each."""
    return map(_example_line, corpus.split(name))


def _manifest_text(corpus: Corpus) -> str:
    spec_dict = corpus.spec.to_dict()
    manifest = {
        "format": "layerfuse-corpus",
        "version": 1,
        "spec": spec_dict,
        "spec_sha256": hashlib.sha256(_canonical_json(spec_dict).encode()).hexdigest(),
        "src_tokens": corpus.src_vocab.tokens,
        "tgt_tokens": corpus.tgt_vocab.tokens,
        "counts": {name: len(corpus.split(name))
                   for name in SPLITS},
    }
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def write_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    """Write the four splits, then manifest.json, each through atomic_write.

    A write that fails or is killed midway leaves every file whole: a file
    holds either the previous corpus's bytes or the new ones.
    """
    out = Path(out_dir)
    for name in SPLITS:
        with atomic_write(out / f"{name}.jsonl") as fh:
            fh.writelines(_split_lines(corpus, name))
    with atomic_write(out / "manifest.json") as fh:
        fh.write(_manifest_text(corpus))


def _check_file(path: Path, got: bytes, want: str) -> None:
    """Raise ValueError, naming the first line that differs, unless ``got``,
    the bytes read from ``path``, are ``want``, the text written for it."""
    want = want.encode()
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        lineno = next(i for i, (line, wanted) in enumerate(pairs, 1) if line != wanted)
        raise ValueError(f"{path} line {lineno} differs from what its "
                         "manifest's spec generates")


def load_corpus(data_dir: str | Path) -> Corpus:
    """Regenerate the corpus from the spec in data_dir/manifest.json.

    Every file must hold exactly what write_corpus writes for that corpus;
    the first line that differs raises ValueError naming the file and line.
    A split whose line count differs from the spec's is refused before the
    corpus is generated, so the cost of a refusal does not follow the spec.
    """
    data = Path(data_dir)
    manifest_path = data / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no corpus manifest at {manifest_path}")
    manifest = manifest_path.read_bytes()
    try:
        spec = CorpusSpec(**json.loads(manifest)["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{manifest_path} is not a version-1 corpus manifest: {exc!r}"
        ) from exc
    splits = {}
    for name, count in spec.split_sizes().items():
        path = data / f"{name}.jsonl"
        splits[name] = path.read_bytes() if path.is_file() else b""
        if (held := len(splits[name].splitlines())) != count:
            raise ValueError(f"{path} holds {held} examples, but "
                             f"{manifest_path} counts {count}")
    try:
        corpus = generate_corpus(spec)
    except GenerationError as exc:
        raise ValueError(
            f"{manifest_path} is not a version-1 corpus manifest: {exc!r}"
        ) from exc
    _check_file(manifest_path, manifest, _manifest_text(corpus))
    for name, got in splits.items():
        _check_file(data / f"{name}.jsonl", got, "".join(_split_lines(corpus, name)))
    return corpus


# -- metrics -------------------------------------------------------------------


def check_compound(prediction, example: Example,
                   dictionary: dict) -> bool:
    """True when the compound's realization occurs contiguously in the prediction."""
    real = realize_compound(example.compound, dictionary)
    pred = tuple(prediction)
    length = len(real)
    for start in range(len(pred) - length + 1):
        if pred[start:start + length] == real:
            return True
    return False


@dataclass
class CTERReport:
    n_instances: int
    n_compounds: int
    instance_errors: int
    compound_errors: int
    instance_rate: float
    aggregate_rate: float
    by_compound_length: dict
    by_context_bucket: dict
    by_mod: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _breakdown(pairs) -> dict:
    groups: dict = {}
    for label, err in pairs:
        g = groups.setdefault(label, {"errors": 0, "total": 0})
        g["errors"] += int(err)
        g["total"] += 1
    for g in groups.values():
        g["rate"] = g["errors"] / g["total"]
    return dict(sorted(groups.items(), key=lambda kv: str(kv[0])))


def cter(predictions, examples, dictionary: dict) -> CTERReport:
    """Compound translation error ratio, instance- and aggregate-level."""
    if len(predictions) != len(examples):
        raise ValueError(
            f"{len(predictions)} predictions for {len(examples)} examples"
        )
    if not examples:
        raise ValueError("cter over an empty example list")
    errs = [not check_compound(pred, ex, dictionary)
            for pred, ex in zip(predictions, examples)]
    by_compound: dict = {}
    for ex, err in zip(examples, errs):
        key = ex.compound_id if ex.compound_id is not None else ex.compound.atoms
        by_compound[key] = by_compound.get(key, False) or err
    n_inst = len(examples)
    n_comp = len(by_compound)
    inst_errors = sum(errs)
    comp_errors = sum(by_compound.values())
    return CTERReport(
        n_instances=n_inst,
        n_compounds=n_comp,
        instance_errors=inst_errors,
        compound_errors=comp_errors,
        instance_rate=inst_errors / n_inst,
        aggregate_rate=comp_errors / n_comp,
        by_compound_length=_breakdown(
            (ex.compound_length, err) for ex, err in zip(examples, errs)),
        by_context_bucket=_breakdown(
            (ex.context_bucket, err) for ex, err in zip(examples, errs)),
        by_mod=_breakdown(
            ("with_mod" if ex.has_mod else "without_mod", err)
            for ex, err in zip(examples, errs)),
    )


def exact_match(predictions, references) -> float:
    """Fraction of predictions identical to their reference token sequence."""
    if len(predictions) != len(references):
        raise ValueError(
            f"{len(predictions)} predictions for {len(references)} references"
        )
    if not predictions:
        raise ValueError("exact_match over an empty list")
    hits = sum(tuple(p) == tuple(r) for p, r in zip(predictions, references))
    return hits / len(predictions)


# -- model glue ----------------------------------------------------------------


def example_to_triple(ex: Example, src_vocab: Vocabulary, tgt_vocab: Vocabulary):
    """Encode an example as (src_ids, tgt_in_ids, tgt_out_ids)."""
    ids = np.array([BOS, *(tgt_vocab.index[tok] for tok in ex.tgt), EOS],
                   dtype=np.int64)
    return src_vocab.encode(ex.src), ids[:-1], ids[1:]


def triples(examples, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> list:
    return [example_to_triple(ex, src_vocab, tgt_vocab) for ex in examples]
