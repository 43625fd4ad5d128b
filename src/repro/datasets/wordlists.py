"""Embedded wordlists for lexical feature extraction (Table 1).

The paper checks expired names against an English dictionary, a brand
list, and an adult-term list (following Miramirkhani et al.'s DNS
dropcatching features). Offline, we embed compact but representative
lists: ~400 common English words skewed toward the short, memorable
vocabulary that dominates ENS speculation, plus brand and adult lists.

The sets are exposed as frozensets plus membership helpers; matching is
case-insensitive and substring search uses simple containment (as the
paper's ``contains_*`` features do).

The lists live in the datasets layer (not ``repro.core.features``)
because two layers consume them: the Table-1 lexical features above
and the simulator's name generator below — reference data sits beneath
both so neither has to import upward.
"""

from __future__ import annotations

__all__ = [
    "DICTIONARY_WORDS",
    "BRAND_NAMES",
    "ADULT_WORDS",
    "is_dictionary_word",
    "contains_dictionary_word",
    "contains_brand_name",
    "contains_adult_word",
]

DICTIONARY_WORDS: frozenset[str] = frozenset("""
able acid aged air also area army away baby back ball band bank base bath
bear beat beer bell belt best bird bite blue boat body bomb bond bone book
boot born boss both bowl bulk burn bush busy cake call calm came camp card
care cars case cash cast cell chat chip city claw club coal coat code coin
cold come cook cool cope copy core cost crew crop dark data date dawn days
dead deal dean dear debt deep deny desk dial dice diet dirt dish does dog
done door dose down draw dream drop drug dual duke dust duty each earn ease
east easy edge else even ever evil exit face fact fail fair fall farm fast
fate fear feed feel feet fell felt file fill film find fine fire firm fish
five flat flow food foot ford form fort four free from fuel full fund gain
game gate gave gear gene gift girl give glad goal goat goes gold golf gone
good gray great green grew grey grid grow gulf hair half hall hand hang hard
harm hate have head hear heat held hell help here hero high hill hire hold
hole holy home hope horn host hour huge hung hunt hurt idea inch into iron
item jazz join jump jury just keen keep kent kept kick kill kind king knee
knew know lack lady laid lake land lane last late lead left less life lift
like line link lion list live load loan lock logo long look lord lose loss
lost loud love luck made mail main make many mark mass meal mean meat meet
menu mere mile milk mind mine miss mode moon more most move much must name
navy near neck need news next nice nine none nose note okay once only onto
open oral over pace pack page paid pain pair palm park part pass past path
peak pick pink pipe plan play plot plus poem poet pole poll pool poor port
post pull pure push race rail rain rank rare rate read real rear rely rent
rest rice rich ride ring rise risk road rock role roll roof room root rose
rule rush safe sage said sail sale salt same sand save seal seat seed seek
seem seen self sell send sent ship shop shot show shut sick side sign site
size skin slip slow snow soft soil sold sole some song soon sort soul spot
star stay step stop such suit sure take tale talk tall tank tape task team
tech tell tend term test text than that them then they thin this thus tide
tied time tiny told toll tone tony took tool tour town tree trip true tune
turn twin type unit upon used user vary vast very vice view vote wage wait
wake walk wall want ward warm wash wave ways weak wear week well went were
west what when whip whom wide wife wild will wind wine wing wire wise wish
with wolf wood word wore work yard yeah year your zero zone
gold money crypto vault token smart chain block magic pizza panda tiger
whale dragon rocket diamond silver bronze castle knight wizard ninja pirate
falcon eagle shark cobra venom storm thunder blaze ember frost comet nova
apex alpha omega prime royal noble grand ultra mega giga nano meta punk
doge moon lambo hodl mint burn stake yield swap pool farm node miner
""".split())

BRAND_NAMES: frozenset[str] = frozenset("""
google apple amazon microsoft facebook twitter netflix tesla nike adidas
puma samsung sony toyota honda ferrari porsche gucci prada rolex visa
paypal coinbase binance kraken opensea uniswap chainlink ethereum bitcoin
gnosis aave maker compound disney pepsi cola nintendo playstation xbox
spotify youtube instagram tiktok snapchat reddit discord telegram whatsapp
walmart target costco ikea lego starbucks mcdonalds burgerking subway
""".split())

ADULT_WORDS: frozenset[str] = frozenset("""
adult porn porno xxx sexy nude naked erotic fetish escort hooker stripper
cam4 milf bdsm hentai playboy hustler brazzers onlyfans camgirl dominatrix
swinger voyeur kinky lustful sensual xrated redlight bordello
""".split())

_MIN_SUBSTRING_WORD_LENGTH = 3


def _substring_index(words: frozenset[str]) -> tuple[frozenset[str], tuple[int, ...]]:
    """The words long enough for substring search, and their lengths."""
    kept = frozenset(
        word for word in words if len(word) >= _MIN_SUBSTRING_WORD_LENGTH
    )
    return kept, tuple(sorted({len(word) for word in kept}))


_DICTIONARY_INDEX = _substring_index(DICTIONARY_WORDS)
_BRAND_INDEX = _substring_index(BRAND_NAMES)
_ADULT_INDEX = _substring_index(ADULT_WORDS)


def is_dictionary_word(label: str) -> bool:
    """Exact dictionary membership (the ``is_dictionary_word`` feature)."""
    return label.lower() in DICTIONARY_WORDS


def _contains_word_from(
    label: str, index: tuple[frozenset[str], tuple[int, ...]]
) -> bool:
    """True when a word of ``index`` is a substring of ``label``
    (case-insensitive): each substring of a word length is looked up."""
    lowered = label.lower()
    words, lengths = index
    return any(
        lowered[start:start + length] in words
        for length in lengths
        for start in range(len(lowered) - length + 1)
    )


def contains_dictionary_word(label: str) -> bool:
    """True when any dictionary word appears as a substring."""
    return _contains_word_from(label, _DICTIONARY_INDEX)


def contains_brand_name(label: str) -> bool:
    """True when any known brand appears as a substring."""
    return _contains_word_from(label, _BRAND_INDEX)


def contains_adult_word(label: str) -> bool:
    """True when any adult term appears as a substring."""
    return _contains_word_from(label, _ADULT_INDEX)
