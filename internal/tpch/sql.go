package tpch

import (
	"fmt"

	"vectorh/internal/plan"
	"vectorh/internal/sql"
)

// NumQueries is the TPC-H query count.
const NumQueries = 22

// BuildQuery compiles the SQL text of TPC-H query q (1-based) against a
// catalog: the engine, or a baseline engine, which then runs the same plan.
func BuildQuery(q int, cat plan.Catalog) (plan.Node, error) {
	if q < 1 || q > NumQueries {
		return nil, fmt.Errorf("tpch: no query %d", q)
	}
	return sql.Compile(SQLQueries[q], cat)
}

// SQLQueries is the 22-query TPC-H workload as SQL text, the one statement of
// each query: the engine, the Hive-like baseline and the benchmark all run
// these texts, and testdata/answers.golden pins their answers at SF 0.01.
//
// Two texts deviate from the specification's wording on purpose. Q15 compares
// each supplier's revenue with the maximum scaled by 0.999999999: both sides
// are float sums computed independently and in parallel, so demanding bit
// equality between them would drop the top supplier whenever the summation
// orders differ. Decimal columns projected through `* 1.00` (Q2, Q22) come out
// as float64 amounts rather than the stored scaled integers (Q10's c_acctbal);
// answers.golden pins those column types.
var SQLQueries = map[int]string{
	2: `select s_acctbal * 1.00 as s_acctbal, s_name, n_name, p_partkey, p_mfgr,
	       s_address, s_phone, s_comment
	from partsupp
	  join part on ps_partkey = p_partkey
	  join supplier on ps_suppkey = s_suppkey
	  join nation on s_nationkey = n_nationkey
	  join region on n_regionkey = r_regionkey
	where p_size = 15
	  and p_type like '%BRASS'
	  and r_name = 'EUROPE'
	  and ps_supplycost = (
	      select min(ps_supplycost)
	      from partsupp
	        join supplier on ps_suppkey = s_suppkey
	        join nation on s_nationkey = n_nationkey
	        join region on n_regionkey = r_regionkey
	      where ps_partkey = p_partkey
	        and r_name = 'EUROPE')
	order by s_acctbal desc, n_name, s_name, p_partkey
	limit 100`,

	4: `select o_orderpriority, count(*) as order_count
	from orders
	where o_orderdate >= date '1993-07-01'
	  and o_orderdate < date '1993-07-01' + interval '3' month
	  and exists (
	      select * from lineitem
	      where l_orderkey = o_orderkey and l_commitdate < l_receiptdate)
	group by o_orderpriority
	order by o_orderpriority`,

	7: `select n1.n_name as supp_nation, n2.n_name as cust_nation,
	       year(l_shipdate) as l_year,
	       sum(l_extendedprice * (1 - l_discount)) as revenue
	from lineitem
	  join orders on l_orderkey = o_orderkey
	  join customer on o_custkey = c_custkey
	  join supplier on l_suppkey = s_suppkey
	  join nation n1 on s_nationkey = n1.n_nationkey
	  join nation n2 on c_nationkey = n2.n_nationkey
	where ((n1.n_name = 'FRANCE' and n2.n_name = 'GERMANY')
	    or (n1.n_name = 'GERMANY' and n2.n_name = 'FRANCE'))
	  and l_shipdate between date '1995-01-01' and date '1996-12-31'
	group by supp_nation, cust_nation, l_year
	order by supp_nation, cust_nation, l_year`,

	8: `select year(o_orderdate) as o_year,
	       sum(case when n2.n_name = 'BRAZIL'
	                then l_extendedprice * (1 - l_discount) else 0 end)
	         / sum(l_extendedprice * (1 - l_discount)) as mkt_share
	from lineitem
	  join part on l_partkey = p_partkey
	  join orders on l_orderkey = o_orderkey
	  join customer on o_custkey = c_custkey
	  join nation n1 on c_nationkey = n1.n_nationkey
	  join region on n1.n_regionkey = r_regionkey
	  join supplier on l_suppkey = s_suppkey
	  join nation n2 on s_nationkey = n2.n_nationkey
	where p_type = 'ECONOMY ANODIZED STEEL'
	  and r_name = 'AMERICA'
	  and o_orderdate between date '1995-01-01' and date '1996-12-31'
	group by o_year
	order by o_year`,

	11: `select ps_partkey, sum(ps_supplycost * ps_availqty) as value
	from partsupp
	  join supplier on ps_suppkey = s_suppkey
	  join nation on s_nationkey = n_nationkey
	where n_name = 'GERMANY'
	group by ps_partkey
	having sum(ps_supplycost * ps_availqty) > (
	    select sum(ps_supplycost * ps_availqty) * 0.0001
	    from partsupp
	      join supplier on ps_suppkey = s_suppkey
	      join nation on s_nationkey = n_nationkey
	    where n_name = 'GERMANY')
	order by value desc`,

	13: `select c_count, count(*) as custdist
	from (select c_custkey, count(o_orderkey) as c_count
	      from customer left outer join orders
	        on c_custkey = o_custkey and o_comment not like '%special%requests%'
	      group by c_custkey) c_orders
	group by c_count
	order by custdist desc, c_count desc`,

	15: `select s_suppkey, s_name, s_address, s_phone, total_revenue
	from supplier
	  join (select l_suppkey, sum(l_extendedprice * (1 - l_discount)) as total_revenue
	        from lineitem
	        where l_shipdate >= date '1996-01-01'
	          and l_shipdate < date '1996-01-01' + interval '3' month
	        group by l_suppkey) revenue on s_suppkey = l_suppkey
	where total_revenue >= (
	    select max(total_revenue) * 0.999999999
	    from (select l_suppkey, sum(l_extendedprice * (1 - l_discount)) as total_revenue
	          from lineitem
	          where l_shipdate >= date '1996-01-01'
	            and l_shipdate < date '1996-01-01' + interval '3' month
	          group by l_suppkey) r)
	order by s_suppkey`,

	16: `select p_brand, p_type, p_size, count(distinct ps_suppkey) as supplier_cnt
	from partsupp
	  join part on ps_partkey = p_partkey
	where p_brand <> 'Brand#45'
	  and p_type not like 'MEDIUM POLISHED%'
	  and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
	  and ps_suppkey not in (
	      select s_suppkey from supplier
	      where s_comment like '%Customer%Complaints%')
	group by p_brand, p_type, p_size
	order by supplier_cnt desc, p_brand, p_type, p_size`,

	17: `select sum(l_extendedprice) / 7 as avg_yearly
	from lineitem
	  join part on p_partkey = l_partkey
	where p_brand = 'Brand#23'
	  and p_container = 'MED BOX'
	  and l_quantity < (
	      select 0.2 * avg(l_quantity) from lineitem l2
	      where l2.l_partkey = p_partkey)`,

	18: `select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
	       sum(l_quantity) as sum_qty
	from lineitem
	  join orders on l_orderkey = o_orderkey
	  join customer on o_custkey = c_custkey
	where o_orderkey in (
	    select l_orderkey from lineitem
	    group by l_orderkey
	    having sum(l_quantity) > 300)
	group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
	order by o_totalprice desc, o_orderdate
	limit 100`,

	20: `select s_name, s_address
	from supplier
	  join nation on s_nationkey = n_nationkey
	where n_name = 'CANADA'
	  and s_suppkey in (
	      select ps_suppkey from partsupp
	      where ps_partkey in (
	            select p_partkey from part where p_name like 'forest%')
	        and ps_availqty > (
	            select 0.5 * sum(l_quantity) from lineitem
	            where l_partkey = ps_partkey
	              and l_suppkey = ps_suppkey
	              and l_shipdate >= date '1994-01-01'
	              and l_shipdate < date '1995-01-01'))
	order by s_name`,

	21: `select s_name, count(*) as numwait
	from lineitem
	  join orders on l_orderkey = o_orderkey
	  join supplier on l_suppkey = s_suppkey
	  join nation on s_nationkey = n_nationkey
	  join (select l_orderkey as t_orderkey, count(distinct l_suppkey) as nsupp
	        from lineitem group by l_orderkey) total on l_orderkey = t_orderkey
	  join (select l_orderkey as lt_orderkey, count(distinct l_suppkey) as nlate
	        from lineitem where l_receiptdate > l_commitdate
	        group by l_orderkey) late on l_orderkey = lt_orderkey
	where o_orderstatus = 'F'
	  and l_receiptdate > l_commitdate
	  and n_name = 'SAUDI ARABIA'
	  and nsupp > 1
	  and nlate = 1
	group by s_name
	order by numwait desc, s_name
	limit 100`,

	22: `select cntrycode, count(*) as numcust, sum(acctbal) as totacctbal
	from (select substring(c_phone from 1 for 2) as cntrycode,
	             c_acctbal * 1.00 as acctbal, c_custkey
	      from customer
	      where substring(c_phone from 1 for 2)
	            in ('13', '31', '23', '29', '30', '18', '17')) custsale
	where acctbal > (
	    select avg(c_acctbal * 1.00) from customer
	    where c_acctbal > 0.00
	      and substring(c_phone from 1 for 2)
	          in ('13', '31', '23', '29', '30', '18', '17'))
	  and not exists (
	      select * from orders where o_custkey = c_custkey)
	group by cntrycode
	order by cntrycode`,

	1: `select l_returnflag, l_linestatus,
	       sum(l_quantity) as sum_qty,
	       sum(l_extendedprice) as sum_base_price,
	       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
	       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
	       avg(l_quantity) as avg_qty,
	       avg(l_extendedprice) as avg_price,
	       avg(l_discount) as avg_disc,
	       count(*) as count_order
	from lineitem
	where l_shipdate <= date '1998-09-02'
	group by l_returnflag, l_linestatus
	order by l_returnflag, l_linestatus`,

	3: `select l_orderkey, o_orderdate, o_shippriority,
	       sum(l_extendedprice * (1 - l_discount)) as revenue
	from lineitem
	  join orders on l_orderkey = o_orderkey
	  join customer on o_custkey = c_custkey
	where c_mktsegment = 'BUILDING'
	  and o_orderdate < date '1995-03-15'
	  and l_shipdate > date '1995-03-15'
	group by l_orderkey, o_orderdate, o_shippriority
	order by revenue desc, o_orderdate
	limit 10`,

	5: `select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
	from lineitem
	  join orders on l_orderkey = o_orderkey
	  join customer on o_custkey = c_custkey
	  join supplier on l_suppkey = s_suppkey and c_nationkey = s_nationkey
	  join nation on s_nationkey = n_nationkey
	  join region on n_regionkey = r_regionkey
	where r_name = 'ASIA'
	  and o_orderdate >= date '1994-01-01'
	  and o_orderdate < date '1995-01-01'
	group by n_name
	order by revenue desc`,

	6: `select sum(l_extendedprice * l_discount) as revenue
	from lineitem
	where l_shipdate >= date '1994-01-01'
	  and l_shipdate < date '1995-01-01'
	  and l_discount between 0.05 and 0.07
	  and l_quantity < 24`,

	9: `select n_name as nation, year(o_orderdate) as o_year,
	       sum(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) as sum_profit
	from lineitem
	  join part on l_partkey = p_partkey
	  join partsupp on l_partkey = ps_partkey and l_suppkey = ps_suppkey
	  join orders on l_orderkey = o_orderkey
	  join supplier on l_suppkey = s_suppkey
	  join nation on s_nationkey = n_nationkey
	where p_name like '%green%'
	group by nation, o_year
	order by nation, o_year desc`,

	10: `select c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment,
	       sum(l_extendedprice * (1 - l_discount)) as revenue
	from lineitem
	  join orders on l_orderkey = o_orderkey
	  join customer on o_custkey = c_custkey
	  join nation on c_nationkey = n_nationkey
	where l_returnflag = 'R'
	  and o_orderdate >= date '1993-10-01'
	  and o_orderdate < date '1993-10-01' + interval '3' month
	group by c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
	order by revenue desc, c_custkey
	limit 20`,

	12: `select l_shipmode,
	       sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 1 else 0 end) as high_line_count,
	       sum(case when o_orderpriority in ('1-URGENT', '2-HIGH') then 0 else 1 end) as low_line_count
	from lineitem
	  join orders on l_orderkey = o_orderkey
	where l_shipmode in ('MAIL', 'SHIP')
	  and l_commitdate < l_receiptdate
	  and l_shipdate < l_commitdate
	  and l_receiptdate >= date '1994-01-01'
	  and l_receiptdate < date '1995-01-01'
	group by l_shipmode
	order by l_shipmode`,

	14: `select 100.00 * sum(case when p_type like 'PROMO%'
	                        then l_extendedprice * (1 - l_discount) else 0 end)
	       / sum(l_extendedprice * (1 - l_discount)) as promo_revenue
	from lineitem
	  join part on l_partkey = p_partkey
	where l_shipdate >= date '1995-09-01'
	  and l_shipdate < date '1995-09-01' + interval '1' month`,

	19: `select sum(l_extendedprice * (1 - l_discount)) as revenue
	from lineitem
	  join part on l_partkey = p_partkey and (
	       (p_brand = 'Brand#12'
	        and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
	        and l_quantity between 1 and 11 and p_size between 1 and 5)
	    or (p_brand = 'Brand#23'
	        and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
	        and l_quantity between 10 and 20 and p_size between 1 and 10)
	    or (p_brand = 'Brand#34'
	        and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
	        and l_quantity between 20 and 30 and p_size between 1 and 15))
	where l_shipmode in ('AIR', 'REG AIR')
	  and l_shipinstruct = 'DELIVER IN PERSON'`,
}
