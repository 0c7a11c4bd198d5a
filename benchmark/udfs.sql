-- The cursor-loop UDFs of the loop_cursor and loop_aggified workloads, as
-- written: the paper's TPC-H Q2, Q13 and Q18 loops (many small loops) and
-- the Q14 loop (one big loop). The benchmark keeps its own copy so the
-- workload does not change when internal/tpch does.
create function getLowerBound(@pkey int) returns int as
begin
  return 0;
end
GO
create function minCostSupp(@pkey int, @lb int = -1) returns char(25) as
begin
  declare @pCost decimal(15,2);
  declare @sName char(25);
  declare @minCost decimal(15,2) = 100000;
  declare @suppName char(25);
  if (@lb = -1)
    set @lb = getLowerBound(@pkey);
  declare c1 cursor for
    select ps_supplycost, s_name from partsupp, supplier
    where ps_partkey = @pkey and ps_suppkey = s_suppkey;
  open c1;
  fetch next from c1 into @pCost, @sName;
  while @@fetch_status = 0
  begin
    if (@pCost < @minCost and @pCost >= @lb)
    begin
      set @minCost = @pCost;
      set @suppName = @sName;
    end
    fetch next from c1 into @pCost, @sName;
  end
  close c1;
  deallocate c1;
  return @suppName;
end
GO
create function countOrders(@ckey int) returns int as
begin
  declare @comment varchar(79);
  declare @cnt int = 0;
  declare c cursor for
    select o_comment from orders where o_custkey = @ckey;
  open c;
  fetch next from c into @comment;
  while @@fetch_status = 0
  begin
    if @comment not like '%special%requests%'
      set @cnt = @cnt + 1;
    fetch next from c into @comment;
  end
  close c;
  deallocate c;
  return @cnt;
end
GO
create function sumQty(@okey int) returns float as
begin
  declare @q decimal(15,2);
  declare @s float = 0;
  declare c cursor for
    select l_quantity from lineitem where l_orderkey = @okey;
  open c;
  fetch next from c into @q;
  while @@fetch_status = 0
  begin
    set @s = @s + @q;
    fetch next from c into @q;
  end
  close c;
  deallocate c;
  return @s;
end
GO
create function promoRevenue(@from date) returns float as
begin
  declare @price decimal(15,2);
  declare @disc decimal(15,2);
  declare @type varchar(25);
  declare @promo float = 0;
  declare @total float = 0;
  declare c cursor for
    select l_extendedprice, l_discount, p_type
    from lineitem, part
    where l_partkey = p_partkey
      and l_shipdate >= @from and l_shipdate < @from + 90;
  open c;
  fetch next from c into @price, @disc, @type;
  while @@fetch_status = 0
  begin
    if @type like 'PROMO%'
      set @promo = @promo + @price * (1 - @disc);
    set @total = @total + @price * (1 - @disc);
    fetch next from c into @price, @disc, @type;
  end
  close c;
  deallocate c;
  if @total = 0 return 0;
  return 100.0 * @promo / @total;
end
