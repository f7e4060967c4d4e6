"""Survey-grounded synthetic password corpora.

The real leaked lists are unavailable offline, so experiments run on
synthetic stand-ins built from the paper's *own* behavioural findings
(DESIGN.md §4 records the substitution argument):

* A shared :class:`SyntheticEcosystem` holds one deterministic **user
  population per language**.  Every user owns a handful of base
  passwords (a memorable word, a digit string, combinations).
* Per service registration, the generator samples the user's *action*
  — reuse / modify / create-new — with the survey's probabilities
  (:class:`repro.survey.data.BehaviorModel`), and for modifications a
  transformation rule (concatenate, capitalize, leet, ...) with the
  survey's rule weights.  Password **reuse across services is
  therefore the generating mechanism**, exactly the phenomenon
  fuzzyPSM models.
* Each corpus is calibrated to its :class:`DatasetProfile`: the top-10
  list with its published share, the character-composition mix of
  Table IX, the length distribution of Table X and the unique/total
  duplication factor of Table VII.

Everything is seeded and deterministic: the same ecosystem seed yields
byte-identical corpora.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.datasets.corpus import PasswordCorpus
from repro.datasets.profiles import DatasetProfile, profile as get_profile
from repro.survey.data import BehaviorModel
from repro.util.leet import LEET_BY_LETTER

# --- language material ------------------------------------------------------

_ENGLISH_WORDS: Sequence[str] = (
    "password", "iloveyou", "princess", "sunshine", "shadow", "monkey",
    "dragon", "butterfly", "superman", "batman", "soccer", "football",
    "baseball", "jordan", "hunter", "ranger", "summer", "winter",
    "flower", "angel", "lovely", "chocolate", "cookie", "babygirl",
    "jessica", "michael", "ashley", "daniel", "charlie", "thomas",
    "jasmine", "michelle", "anthony", "matthew", "andrew", "joshua",
    "amanda", "nicole", "hannah", "taylor", "tigger", "pepper",
    "ginger", "cheese", "banana", "orange", "purple", "silver",
    "golden", "master", "killer", "welcome", "freedom", "forever",
    "whatever", "secret", "magic", "mustang", "camaro", "harley",
    "yankees", "cowboys", "steelers", "lakers", "arsenal", "chelsea",
    "liverpool", "jesus", "christ", "blessed", "heaven", "grace",
    "faith", "peace", "trinity", "genesis", "writer", "united",
    "scooter", "buster", "bailey", "maggie", "molly", "sophie",
    "chicken", "monster", "rockstar", "skater", "gamer", "ninja",
    "pokemon", "naruto", "starwars", "matrix", "qwerty", "computer",
    "internet", "samsung", "nintendo", "google", "hotmail",
)

_ENGLISH_SUFFIX_WORDS: Sequence[str] = (
    "boy", "girl", "man", "dog", "cat", "one", "star", "baby", "love",
)

#: Pinyin names and words — the letter material of Chinese passwords.
_CHINESE_WORDS: Sequence[str] = (
    "wanglei", "zhangwei", "liyang", "liuyang", "chenjing", "yangyang",
    "zhaolei", "wujing", "zhouyan", "xuming", "sunli", "mayun",
    "zhuhai", "huge", "guojing", "linfeng", "hejun", "gaofei",
    "liangchen", "zhengshuang", "xiaoming", "xiaolong", "xiaofang",
    "meimei", "lili", "nana", "feifei", "yangguang", "woaini",
    "wangyu", "zhanghua", "lijun", "liwei", "wangfang", "lina",
    "zhangmin", "liuwei", "wangjing", "zhangjie", "yangliu",
    "haoren", "tiantian", "beibei", "doudou", "maomao", "xixi",
    "longlong", "pengyou", "laopo", "laogong", "baobao", "baobei",
    "shuaige", "meinv", "caishen", "facai", "gongxi", "zhongguo",
    "beijing", "shanghai", "tianya", "taobao", "wangba", "diannao",
)

#: Digit motifs that dominate Chinese datasets (Table VIII): love codes
#: (520 = "I love you", 1314 = "forever"), repeats, ladders.
_CHINESE_DIGIT_MOTIFS: Sequence[str] = (
    "520", "1314", "5201314", "1314520", "521", "888", "666", "168",
)

_COMMON_SYMBOLS = "!@#.*_-"


# --- the user population -------------------------------------------------------


#: Pinyin syllables for composing full names (surname + given name),
#: giving the word distribution a realistic heavy tail: a small head of
#: very common words plus thousands of rarer compositions.
_PINYIN_SURNAMES: Sequence[str] = (
    "wang", "li", "zhang", "liu", "chen", "yang", "huang", "zhao",
    "wu", "zhou", "xu", "sun", "ma", "zhu", "hu", "guo", "lin", "he",
    "gao", "liang", "zheng", "luo", "song", "xie", "tang", "han",
    "cao", "deng", "feng", "peng",
)

_PINYIN_GIVEN: Sequence[str] = (
    "wei", "fang", "min", "jing", "li", "qiang", "lei", "jun", "yang",
    "yong", "yan", "jie", "juan", "tao", "ming", "chao", "xia", "ping",
    "gang", "hui", "hua", "long", "bin", "bo", "fei", "hao", "kai",
    "mei", "na", "ting",
)

_ENGLISH_FIRST: Sequence[str] = (
    "mike", "john", "dave", "chris", "alex", "sam", "tom", "ben",
    "jake", "luke", "matt", "nick", "ryan", "adam", "joe", "dan",
    "anna", "emma", "lily", "kate", "lucy", "sara", "beth", "jane",
    "amy", "zoe", "mia", "ella", "rose", "ruby",
)


def _compose_word(rng: random.Random, language: str) -> str:
    """A user's memorable word: common head or composed long tail."""
    if language == "Chinese":
        if rng.random() < 0.30:
            return _CHINESE_WORDS[rng.randrange(len(_CHINESE_WORDS))]
        name = _PINYIN_SURNAMES[rng.randrange(len(_PINYIN_SURNAMES))]
        name += _PINYIN_GIVEN[rng.randrange(len(_PINYIN_GIVEN))]
        if rng.random() < 0.4:
            name += _PINYIN_GIVEN[rng.randrange(len(_PINYIN_GIVEN))]
        return name
    if rng.random() < 0.35:
        return _ENGLISH_WORDS[rng.randrange(len(_ENGLISH_WORDS))]
    first = _ENGLISH_FIRST[rng.randrange(len(_ENGLISH_FIRST))]
    if rng.random() < 0.5:
        return first + _ENGLISH_SUFFIX_WORDS[
            rng.randrange(len(_ENGLISH_SUFFIX_WORDS))
        ]
    return first + _ENGLISH_WORDS[rng.randrange(len(_ENGLISH_WORDS))]


class SyntheticUser:
    """One user's reusable password material (deterministic per index)."""

    __slots__ = (
        "word", "second_word", "digits", "short_digits", "symbol",
        "caps_tendency", "leet_tendency",
    )

    def __init__(self, index: int, language: str, seed: int) -> None:
        rng = random.Random(f"{seed}:{language}:{index}")
        self.word = _compose_word(rng, language)
        self.second_word = _ENGLISH_SUFFIX_WORDS[
            rng.randrange(len(_ENGLISH_SUFFIX_WORDS))
        ]
        self.digits = _make_digit_string(rng, language)
        self.short_digits = str(rng.randrange(0, 100)).zfill(
            rng.choice((1, 2))
        )
        self.symbol = _COMMON_SYMBOLS[rng.randrange(len(_COMMON_SYMBOLS))]
        self.caps_tendency = rng.random() < 0.25
        self.leet_tendency = rng.random() < 0.10

    # The user's "existing password" for a composition class.
    def base_password(self, password_class: str) -> str:
        if password_class == "digits":
            return self.digits
        if password_class == "lower":
            return self.word
        if password_class == "letters_digits":
            return self.word + self.short_digits
        if password_class == "digits_letters":
            return self.short_digits + self.word
        if password_class == "symbol":
            return self.word + self.symbol + self.short_digits
        raise ValueError(f"unknown class {password_class!r}")


def _make_digit_string(rng: random.Random, language: str) -> str:
    """A memorable digit string: date, repeat, ladder or love-code."""
    style = rng.random()
    if style < 0.35:  # birth date
        year = rng.randrange(1960, 2005)
        month = rng.randrange(1, 13)
        day = rng.randrange(1, 29)
        form = rng.random()
        if form < 0.4:
            return f"{year}{month:02d}{day:02d}"
        if form < 0.7:
            return f"{month:02d}{day:02d}{year}"
        return f"{year % 100:02d}{month:02d}{day:02d}"
    if style < 0.55:  # repeated digit
        digit = str(rng.randrange(10))
        return digit * rng.choice((6, 6, 7, 8))
    if style < 0.7:  # ladder
        ladders = ("123456", "123456789", "12345678", "654321",
                   "112233", "121212", "123123", "147258369")
        return ladders[rng.randrange(len(ladders))]
    if language == "Chinese" and style < 0.85:  # love code + filler
        motif = _CHINESE_DIGIT_MOTIFS[
            rng.randrange(len(_CHINESE_DIGIT_MOTIFS))
        ]
        filler = str(rng.randrange(10, 100))
        return motif + filler if rng.random() < 0.5 else filler + motif
    # phone/QQ-like
    length = rng.choice((8, 9, 10)) if language == "Chinese" else 7
    return "".join(str(rng.randrange(10)) for _ in range(length))


# --- the ecosystem ----------------------------------------------------------------


class SyntheticEcosystem:
    """A shared user population; corpora generated from it overlap.

    Args:
        seed: master seed; everything derives deterministically.
        population: number of users per language.  Services draw from a
            *prefix* of the population sized by their duplication
            factor, so the same heavy users appear on every service —
            the source of cross-service password reuse (Fig. 12).
    """

    def __init__(self, seed: int = 0, population: int = 100_000) -> None:
        if population < 1:
            raise ValueError("population must be positive")
        self.seed = seed
        self.population = population
        self._users: Dict[Tuple[str, int], SyntheticUser] = {}
        self._behavior = BehaviorModel()

    def user(self, language: str, index: int) -> SyntheticUser:
        key = (language, index)
        if key not in self._users:
            self._users[key] = SyntheticUser(index, language, self.seed)
        return self._users[key]

    # --- corpus generation ------------------------------------------------

    def generate(self, dataset: Union[str, DatasetProfile],
                 total: int = 20_000,
                 seed: Optional[int] = None) -> PasswordCorpus:
        """Generate a corpus calibrated to a dataset profile.

        Args:
            dataset: profile name (``"csdn"``) or a profile object.
            total: number of password entries (with duplicates).
            seed: per-service seed (defaults to a hash of the name).
        """
        profile = (
            dataset if isinstance(dataset, DatasetProfile)
            else get_profile(dataset)
        )
        if total < 1:
            raise ValueError("total must be positive")
        rng = random.Random(
            f"{self.seed}:{profile.name}:{seed if seed is not None else 0}"
        )
        # Active users on this service: sized so that the expected
        # copies-per-user match the dataset's duplication factor.
        active_users = max(
            1, min(self.population, int(total / profile.duplication_factor))
        )
        class_weights = _class_weights(profile)
        counts: Dict[str, int] = {}
        top10 = profile.top10
        # Zipf-ish weights over the top-10 list.
        top10_weights = [1.0 / (rank ** 0.9) for rank in range(1, 11)]
        top10_total = sum(top10_weights)
        for _ in range(total):
            if rng.random() < profile.top10_share:
                password = _weighted_choice(top10, top10_weights,
                                            top10_total, rng)
            else:
                password = self._generate_one(
                    profile, rng, active_users, class_weights
                )
            counts[password] = counts.get(password, 0) + 1
        return PasswordCorpus(
            counts,
            name=profile.name,
            service=profile.service,
            location=profile.location,
            language=profile.language,
        )

    def _generate_one(self, profile: DatasetProfile, rng: random.Random,
                      active_users: int,
                      class_weights: List[Tuple[str, float]]) -> str:
        password_class = _weighted_class(class_weights, rng)
        user = self.user(profile.language, rng.randrange(active_users))
        action = self._behavior.choose_action(rng)
        if action == "new":
            # A brand-new password: material from a random other user,
            # which keeps the marginal distribution but breaks the link
            # to this user's existing passwords.
            donor = self.user(
                profile.language, rng.randrange(self.population)
            )
            password = donor.base_password(password_class)
        else:
            password = user.base_password(password_class)
            if action == "modify":
                password = self._modify(password, password_class, user, rng)
        password = _fit_length(password, password_class, profile, rng)
        return password

    def _modify(self, password: str, password_class: str,
                user: SyntheticUser, rng: random.Random) -> str:
        """Apply one survey-weighted transformation rule."""
        rule = self._behavior.choose_rule(rng)
        if rule == "concatenate_digits":
            extra = user.short_digits if rng.random() < 0.5 else str(
                rng.randrange(10)
            )
            placement = self._behavior.choose_placement(rng)
            if password_class in ("digits", "lower"):
                # Keep the composition class: digits get digits, and
                # lower-only passwords extend with letters instead.
                extra = (
                    str(rng.randrange(10))
                    if password_class == "digits"
                    else user.second_word
                )
            return _place(password, extra, placement)
        if rule == "concatenate_symbol":
            if password_class != "symbol":
                # Symbols would leave the target class; double the tail
                # instead (a common minimal tweak).
                return password + password[-1]
            return _place(password, user.symbol,
                          self._behavior.choose_placement(rng))
        if rule == "capitalize":
            if password[:1].islower() and password_class != "digits":
                return password[:1].upper() + password[1:]
            return password + password[-1]
        if rule == "leet":
            if password_class in ("digits",):
                return password + password[-1]
            return _apply_one_leet(password, rng)
        if rule == "reverse":
            return password[::-1]
        # site_info: a short service tag, kept alphanumeric.
        return password + "1"

    def behavior(self) -> BehaviorModel:
        return self._behavior


# --- helpers ------------------------------------------------------------------


def _class_weights(profile: DatasetProfile) -> List[Tuple[str, float]]:
    """Exclusive composition-class weights derived from Table IX."""
    comp = profile.composition
    digits = comp["^[0-9]+$"]
    lower = comp["^[a-z]+$"]
    letters_digits = comp["^[a-zA-Z]+[0-9]+$"]
    digits_letters = comp["^[0-9]+[a-zA-Z]+$"]
    symbol = max(1.0 - comp["^[a-zA-Z0-9]+$"], 0.005)
    weights = [
        ("digits", digits),
        ("lower", lower),
        ("letters_digits", letters_digits),
        ("digits_letters", digits_letters),
        ("symbol", symbol),
    ]
    covered = sum(weight for _, weight in weights)
    remainder = max(1.0 - covered, 0.0)
    # Spread the remainder (interleaved/uppercase forms) over the two
    # dominant mixed classes.
    return [
        ("digits", digits + remainder * 0.2),
        ("lower", lower + remainder * 0.2),
        ("letters_digits", letters_digits + remainder * 0.4),
        ("digits_letters", digits_letters + remainder * 0.2),
        ("symbol", symbol),
    ]


def _weighted_class(weights: List[Tuple[str, float]],
                    rng: random.Random) -> str:
    total = sum(weight for _, weight in weights)
    roll = rng.random() * total
    cumulative = 0.0
    for name, weight in weights:
        cumulative += weight
        if roll < cumulative:
            return name
    return weights[-1][0]


def _weighted_choice(items: Sequence[str], weights: Sequence[float],
                     total: float, rng: random.Random) -> str:
    roll = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if roll < cumulative:
            return item
    return items[-1]


def _place(password: str, extra: str, placement: str) -> str:
    if placement == "beginning":
        return extra + password
    if placement == "middle":
        middle = len(password) // 2
        return password[:middle] + extra + password[middle:]
    return password + extra


def _apply_one_leet(password: str, rng: random.Random) -> str:
    candidates = [
        (offset, LEET_BY_LETTER[ch])
        for offset, ch in enumerate(password)
        if ch in LEET_BY_LETTER
    ]
    if not candidates:
        return password + "1"
    offset, substitute = candidates[rng.randrange(len(candidates))]
    return password[:offset] + substitute + password[offset + 1:]


def _sample_length(profile: DatasetProfile, rng: random.Random) -> int:
    roll = rng.random()
    cumulative = 0.0
    for bucket, fraction in profile.length_distribution.items():
        cumulative += fraction
        if roll < cumulative:
            return _bucket_to_length(bucket, rng)
    return 8


def _bucket_to_length(bucket: str, rng: random.Random) -> int:
    if bucket == "1-5":
        return rng.choice((4, 5, 5))
    if bucket == "15+":
        return rng.choice((15, 16, 17, 18))
    return int(bucket)


def _fit_length(password: str, password_class: str,
                profile: DatasetProfile, rng: random.Random) -> str:
    """Nudge the password towards the profile's length distribution.

    Digit strings are made to match the sampled target exactly (they
    pad/truncate naturally); word-based passwords are only padded up to
    the policy minimum, preserving their linguistic shape.
    """
    target = _sample_length(profile, rng)
    target = max(target, profile.min_length)
    if profile.max_length < 64:
        target = min(target, profile.max_length)
        password = password[:profile.max_length]
    if password_class == "digits":
        while len(password) < target:
            password += password[-1] if rng.random() < 0.5 else str(
                rng.randrange(10)
            )
        if len(password) > target and target >= profile.min_length:
            password = password[:target]
        return password
    while len(password) < profile.min_length:
        if password_class == "lower":
            # Preserve the letters-only class: extend with letters.
            filler = _ENGLISH_SUFFIX_WORDS[
                rng.randrange(len(_ENGLISH_SUFFIX_WORDS))
            ]
            password += filler
        else:
            password += str(rng.randrange(10))
    return password


def generate_corpus(dataset: Union[str, DatasetProfile],
                    total: int = 20_000, seed: int = 0,
                    ecosystem: Optional[SyntheticEcosystem] = None
                    ) -> PasswordCorpus:
    """Convenience one-shot generation with a private ecosystem.

    For cross-service experiments (overlap, real-world training
    scenarios) share one :class:`SyntheticEcosystem` across calls
    instead, so the corpora are correlated.
    """
    ecosystem = ecosystem or SyntheticEcosystem(seed=seed)
    return ecosystem.generate(dataset, total=total, seed=seed)
